package machine

import "testing"

// Hooks for the external tests in runahead_test.go, which build systems
// through packages that import this one.

type SplitSeen = splitSeen

// Points returns how many split points were tried.
func (s SplitSeen) Points() int { return s.points }

// Add adds o's counts to s.
func (s *SplitSeen) Add(o SplitSeen) { s.add(o) }

// AheadSplitCheck is aheadSplitCheck.
func AheadSplitCheck(t *testing.T, m *Machine, limit uint64) SplitSeen {
	return aheadSplitCheck(t, m, limit)
}

// TrapSplits is trapSplits over every private-layout cause seed.
func TrapSplits(t *testing.T) (seen SplitSeen) {
	for _, seed := range privCauseSeeds(t) {
		seen.add(trapSplits(t, seed))
	}
	return seen
}

// BPSplits is bpSplits.
func BPSplits(t *testing.T) SplitSeen { return bpSplits(t) }

// CheckSplitCoverage fails unless some split point landed on a stop,
// inside a stall, on a block chain and on an armed breakpoint.
func CheckSplitCoverage(t *testing.T, s SplitSeen) {
	t.Helper()
	t.Logf("%d split points: %d on a stop, %d inside a stall, %d on a block chain, %d on a breakpoint", s.points, s.stop, s.stall, s.chain, s.bp)
	if s.stop == 0 || s.stall == 0 || s.chain == 0 || s.bp == 0 {
		t.Fatalf("split points cover too little: %+v", s)
	}
}

// LongRunScenario is longRunScenario.
func LongRunScenario(t *testing.T, sb bool) (string, SuperblockStats) { return longRunScenario(t, sb) }

// PrivCauseSeeds is privCauseSeeds.
func PrivCauseSeeds(t *testing.T) []uint64 { return privCauseSeeds(t) }

// TrapRender is trapRender.
func TrapRender(t *testing.T, seed uint64) (string, SuperblockStats) { return trapRender(t, seed) }

// MemState is memState.
func MemState(m *Machine) string { return memState(m) }

// DiffLine is diffLine.
func DiffLine(a, b string) string { return diffLine(a, b) }
