// Shared scenario wiring helpers: the config validation that both
// DumbbellConfig and TopologyConfig run, and the link/fluid plumbing the
// topology engine needs, so both configs report the exact same constraint
// messages and the engine uses one signal routing.
#pragma once

#include <string>

#include "control/fluid_flow.hpp"
#include "net/bottleneck_link.hpp"
#include "scenario/dumbbell.hpp"
#include "tcp/congestion_control.hpp"

namespace pi2::scenario {

/// Formats a validate() message: "<field> must <constraint> (got <value>)".
[[nodiscard]] std::string bad_field(const std::string& field,
                                    const char* constraint, double got);

/// Signal routing for a fluid spec: the cc families that mark with ECT(1)
/// integrate against p', everything else against p.
[[nodiscard]] control::FluidSignal fluid_signal_for(tcp::CcType cc);

/// AQM knob constraints, shared by every config that embeds an AqmConfig.
/// `prefix` names the embedding field ("aqm." / "links[2].aqm."); returns ""
/// when well-formed.
[[nodiscard]] std::string validate_aqm(const AqmConfig& aqm,
                                       const std::string& prefix);

/// Flow-spec constraints; `where` is the embedding prefix
/// ("tcp_flows[0]." / "tcp_flows[0].spec."). Return "" when well-formed.
[[nodiscard]] std::string validate_tcp_spec(const TcpFlowSpec& f,
                                            const std::string& where);
[[nodiscard]] std::string validate_udp_spec(const UdpFlowSpec& f,
                                            const std::string& where);
[[nodiscard]] std::string validate_fluid_spec(const FluidFlowSpec& f,
                                              const std::string& where);
[[nodiscard]] std::string validate_rate_change(const RateChange& c,
                                               const std::string& where);

/// Stats-window counter slice: whole-run minus the at-stats-start snapshot.
[[nodiscard]] net::BottleneckLink::Counters counters_window(
    const net::BottleneckLink::Counters& whole,
    const net::BottleneckLink::Counters& at);
[[nodiscard]] net::BottleneckLink::BandCounters band_window(
    const net::BottleneckLink::BandCounters& whole,
    const net::BottleneckLink::BandCounters& at);

}  // namespace pi2::scenario
