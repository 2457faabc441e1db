package netsim

// Probabilistic fault injection for chaos testing. Each (link,
// direction) carries its own counter-seeded stream: its draws depend
// only on the fault seed, the link and the packet order over that
// direction — which a single partition owns — so a given seed
// reproduces the exact same loss/jitter/duplication pattern whatever
// the partition count. It is the simulator analogue of the UDP
// backend's runtime.FaultSpec.

// FaultConfig describes the fault model applied to every link.
type FaultConfig struct {
	// LossRate is the per-traversal drop probability.
	LossRate float64
	// DupRate is the per-traversal duplication probability: the copy
	// takes an independently jittered path, so duplicates may also
	// arrive reordered.
	DupRate float64
	// JitterNs adds a uniform random extra latency in [0, JitterNs)
	// per traversal, which reorders packets relative to each other.
	JitterNs Time
	// Seed seeds the per-direction streams (0 = a fixed default seed).
	Seed int64
}

// Active reports whether any fault dimension is enabled.
func (f FaultConfig) Active() bool {
	return f.LossRate > 0 || f.DupRate > 0 || f.JitterNs > 0
}

// InjectFaults arms probabilistic fault injection on every link of the
// network (pass a zero FaultConfig to disarm). Deterministic per-link
// DropNth injection keeps working independently.
func (n *Network) InjectFaults(cfg FaultConfig) {
	// Any reseed restarts the per-direction streams.
	for i := int32(0); i < n.links.count; i++ {
		l := n.links.at(i)
		l.rng[0], l.rng[1] = 0, 0
	}
	if !cfg.Active() {
		n.faults = nil
		return
	}
	n.faults = &cfg
}

// The draws: one splitmix64 stream per (link, direction), seeded from
// the fault seed and the link identity, lazily on first use. Per
// traversal the order is loss, arrival jitter, duplication, duplicate
// jitter.

func splitmix64(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (f *FaultConfig) rand01(l *Link, dir int) float64 {
	if l.rng[dir] == 0 {
		seed := uint64(1)
		if f.Seed != 0 {
			seed = uint64(f.Seed)
		}
		s := seed*0x9E3779B97F4A7C15 ^ uint64(l.idx)<<1 ^ uint64(dir)
		if s == 0 {
			s = 1
		}
		l.rng[dir] = s
	}
	return float64(splitmix64(&l.rng[dir])>>11) / (1 << 53)
}

func (f *FaultConfig) loseDir(l *Link, dir int) bool {
	return f != nil && f.LossRate > 0 && f.rand01(l, dir) < f.LossRate
}

func (f *FaultConfig) dupDir(l *Link, dir int) bool {
	return f != nil && f.DupRate > 0 && f.rand01(l, dir) < f.DupRate
}

func (f *FaultConfig) jitterDir(l *Link, dir int) Time {
	if f == nil || f.JitterNs <= 0 {
		return 0
	}
	return Time(f.rand01(l, dir)) * f.JitterNs
}

// Pause makes the device drop every packet until Restart: the
// simulated analogue of a crashed or rebooting switch. Register and
// table state is preserved across the outage.
func (d *Device) Pause() { d.paused = true }

// Restart resumes a paused device.
func (d *Device) Restart() { d.paused = false }

// Paused reports whether the device is paused.
func (d *Device) Paused() bool { return d.paused }
