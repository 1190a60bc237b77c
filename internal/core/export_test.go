package core

// SetGeneration moves s to generation g as if it had switched there:
// tests reach the end of the generation space without 2^GenBits
// switches.
func (s *AdaptiveSource) SetGeneration(g uint64) { s.gen.Store(g) }

// FailoverFrom runs the failover step from generation g. Sources call it
// only from an even generation; a test calls it at MaxGen to reach the
// refusal no switch sequence reaches.
func (s *AdaptiveSource) FailoverFrom(g uint64) bool { return s.failover(g) }

// SetFailbackAfter replaces s's failback hysteresis with n consecutive
// fault-free snapshots; a negative n disables failback. Call it before s
// is shared.
func (s *AdaptiveSource) SetFailbackAfter(n int) { s.failbackAfter = n }
