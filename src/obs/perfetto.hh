/**
 * @file
 * Chrome/Perfetto trace-event JSON exporter for the flight
 * recorder. The emitted file loads directly in chrome://tracing or
 * ui.perfetto.dev: one process per unit class (cores / LLC banks /
 * virtual networks), one thread track per component. Ticks are
 * written as microseconds so one trace "us" equals one simulated
 * cycle.
 */

#ifndef WB_OBS_PERFETTO_HH
#define WB_OBS_PERFETTO_HH

#include <ostream>
#include <vector>

#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"

namespace wb
{

/**
 * Write the recorder's retained events as trace-event JSON.
 * @p num_cores and @p num_banks size the track-name metadata (banks
 * equal cores in this machine, but the exporter does not assume it).
 * The rows of @p timeline (the metrics sampler's periodic
 * summaries), if any, are exported as counter ("C") tracks in their
 * own process group, so occupancy renders in ui.perfetto.dev
 * alongside the event tracks. Output is deterministic: same
 * recording, same bytes.
 */
void writePerfettoTrace(std::ostream &os, const FlightRecorder &rec,
                        int num_cores, int num_banks,
                        const std::vector<MetricsSummary> &timeline = {});

} // namespace wb

#endif // WB_OBS_PERFETTO_HH
