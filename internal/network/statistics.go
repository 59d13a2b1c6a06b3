package network

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Channel-occupancy accounting. Every acquire/release pair adds to a
// per-lane busy-time counter (one lane per virtual channel; exactly
// one lane per channel on the default 1-VC network), which turns into
// the utilization figures saturation analyses need (the paper reads
// saturation off latency curves; utilization exposes the cause). The
// exported views aggregate a channel's lanes, so callers keep seeing
// physical channels regardless of Config.VCs.

// ChannelStats reports one physical channel's occupancy, summed over
// its virtual-channel lanes.
type ChannelStats struct {
	Channel  topology.ChannelID
	BusyTime sim.Time
	Acquires uint64
}

// Utilization returns the fraction of simulated time the channel was
// held, given the observation window end (usually sim.Now()). On a
// multi-VC network the lane-summed busy time may exceed the window;
// the fraction saturates at 1.
func (c ChannelStats) Utilization(now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	u := c.BusyTime / now
	if u > 1 {
		u = 1
	}
	return u
}

// laneBusy returns one lane's accumulated busy time and acquire
// count; an untouched lazy lane reports zeros without allocating.
// acquire counts a grant and release adds the interval since it.
func (n *Network) laneBusy(l int) (sim.Time, uint64) {
	st := n.laneIfTouched(topology.ChannelID(l))
	if st == nil {
		return 0, 0
	}
	return st.busyTime, st.acquires
}

// ChannelStatsFor returns the occupancy record of one physical
// channel, aggregated over its lanes.
func (n *Network) ChannelStatsFor(ch topology.ChannelID) ChannelStats {
	st := ChannelStats{Channel: ch}
	for l := int(ch) * n.vcs; l < (int(ch)+1)*n.vcs; l++ {
		busy, acq := n.laneBusy(l)
		st.BusyTime += busy
		st.Acquires += acq
	}
	return st
}

// HottestChannels returns the k physical channels with the largest
// lane-summed busy time, most loaded first. It is the tool for
// locating bottlenecks such as the anchor-corner ports of the DB
// algorithm under heavy broadcast rates.
func (n *Network) HottestChannels(k int) []ChannelStats {
	pre := n.lanes / n.vcs
	if n.lazy != nil && pre > pageSize {
		// A sparse store yields few busy channels; don't pre-size for
		// millions.
		pre = pageSize
	}
	all := make([]ChannelStats, 0, pre)
	for ch := 0; ch < n.lanes/n.vcs; ch++ {
		st := n.ChannelStatsFor(topology.ChannelID(ch))
		if st.BusyTime > 0 {
			all = append(all, st)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].BusyTime != all[j].BusyTime {
			return all[i].BusyTime > all[j].BusyTime
		}
		return all[i].Channel < all[j].Channel
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// MeanUtilization returns the mean busy fraction across all channels
// that were ever used, measured against the current clock.
func (n *Network) MeanUtilization() float64 {
	now := n.sim.Now()
	if now <= 0 {
		return 0
	}
	total := sim.Time(0)
	used := 0
	if n.lazy == nil {
		for i := range n.channels {
			if busy := n.channels[i].busyTime; busy > 0 {
				total += busy
				used++
			}
		}
	} else {
		// Same lane order as the dense walk — untouched pages hold only
		// zeros, so skipping them changes nothing.
		for _, p := range n.lazy.lanePages {
			if p == nil {
				continue
			}
			for i := range p.ch {
				if busy := p.ch[i].busyTime; busy > 0 {
					total += busy
					used++
				}
			}
		}
	}
	if used == 0 {
		return 0
	}
	return (total / sim.Time(used)) / now
}
