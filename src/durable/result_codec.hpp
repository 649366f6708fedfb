// RunResult <-> journal payload codec.
//
// The resume path only works if a replayed point is indistinguishable from a
// freshly computed one: every figure table, sweep --json record and oracle
// digest derived from a journaled RunResult must be byte-identical to what
// the original run produced. So the codec is exact, not pretty: doubles are
// serialized as their 64-bit IEEE bit patterns in hex (no decimal rounding),
// integers as hex, strings as hex-encoded bytes. The payload is a single
// line of space-separated tokens, safe to embed in a journal record.
//
// Deliberate exception: RunResult::qdelay_ms_packets retains up to 2^21
// per-packet samples — megabytes per point. Only its count and sum are
// journaled (count()/mean() survive a resume; quantiles do not). No
// journaled campaign reads its quantiles: Figure 14, the only consumer,
// runs its two points directly without a journal. The digest in
// check/oracles.cpp skips it for the same reason.
#pragma once

#include <string>

#include "durable/status.hpp"
#include "scenario/dumbbell.hpp"

namespace pi2::durable {

/// Serializes every field of `result` (see header note on qdelay_ms_packets)
/// into a one-line payload for JournalWriter::append_point.
[[nodiscard]] std::string encode_result(const scenario::RunResult& result);

/// Rebuilds a RunResult from encode_result() output. Returns kCorrupt on any
/// structural mismatch; `result` is only valid when the status is ok.
[[nodiscard]] Status decode_result(const std::string& payload,
                                   scenario::RunResult& result);

}  // namespace pi2::durable
