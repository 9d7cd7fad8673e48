#include "network/mesh.hh"

#include <algorithm>
#include <cassert>
#include <cstdlib>

namespace wb
{

void
MeshConfig::fit(int nodes)
{
    width = 1;
    while (width * width < nodes)
        ++width;
    height = (nodes + width - 1) / width;
}

MeshNetwork::MeshNetwork(std::string name, EventQueue *eq,
                         StatRegistry *stats, const MeshConfig &cfg)
    : Network(std::move(name), eq, stats, cfg.width * cfg.height),
      _cfg(cfg),
      _linkFree(std::size_t(cfg.width) * cfg.height * 4 * numVNets, 0),
      _linkWaitCycles(statGroup().counter("linkWaitCycles"))
{}

unsigned
MeshNetwork::hops(int src, int dst) const
{
    return unsigned(std::abs(xOf(src) - xOf(dst)) +
                    std::abs(yOf(src) - yOf(dst)));
}

Tick
MeshNetwork::routeArrival(Tick snow, const NetMsg &msg)
{
    // Walk the X-Y route, advancing a simulated departure time
    // through each directed link's occupancy horizon. Runs in the
    // serial commit phase, in canonical batch order, so the horizon
    // state evolves identically for any shard count.
    Tick t = snow;
    int node = msg.src;
    const VNet v = msg.vnet;
    while (node != msg.dst) {
        Dir d;
        int next;
        if (xOf(node) != xOf(msg.dst)) {
            d = xOf(node) < xOf(msg.dst) ? East : West;
            next = d == East ? node + 1 : node - 1;
        } else {
            d = yOf(node) < yOf(msg.dst) ? South : North;
            next = d == South ? node + _cfg.width
                              : node - _cfg.width;
        }
        if (_cfg.modelContention) {
            Tick &free_at = _linkFree[linkIndex(node, d, v)];
            if (free_at > t) {
                _linkWaitCycles += free_at - t;
                t = free_at;
            }
            // The link is serialised for the packet's flits.
            free_at = t + msg.flits;
        }
        t += _cfg.hopLatency;
        node = next;
    }
    return t;
}

} // namespace wb
