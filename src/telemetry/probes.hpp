// Probe wiring: connects the metrics registry to the simulation pipeline.
//
// Counters that the pipeline already maintains (BottleneckLink::Counters,
// Scheduler statistics, AQM probabilities) are exposed as *bound gauges* —
// zero hot-path cost, evaluated only at sampling instants. Per-packet
// signals that need distribution tails (sojourn time) subscribe to the
// link's probe bus and feed a log-linear histogram — one array bump per
// departure, no allocation.
//
// The bound gauges read the attached objects live, so they must outlive the
// last sample; Recorder::finish() freezes them before the run tears down.
#pragma once

#include "net/bottleneck_link.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"

namespace pi2::telemetry {

/// Bottleneck counters + queue state gauges, per-departure sojourn histogram
/// ("link.sojourn_ms") and transmitted-bytes counter, drop/mark counters by
/// reason. Subscribes to the link's probe bus.
void attach_link_probes(MetricsRegistry& registry, net::BottleneckLink& link);

/// AQM internals: classic probability p ("aqm.p"), scalable probability p'
/// ("aqm.p_prime"), non-finite guard counter ("aqm.guard_events"). Works for
/// every QueueDiscipline (PI family, RED, CoDel, ...) via the virtual
/// introspection surface.
void attach_aqm_probes(MetricsRegistry& registry, const net::QueueDiscipline& qdisc);

/// Simulator/scheduler state: events executed, clamped schedules, heap
/// occupancy (the armed sources), arms and disarms.
void attach_simulator_probes(MetricsRegistry& registry, const sim::Simulator& sim);

}  // namespace pi2::telemetry
