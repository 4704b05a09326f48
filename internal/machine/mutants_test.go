//go:build mutants

package machine

import (
	"bytes"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The mutation matrix of the batch engine. Each mutant is one edit of the
// engine's source that breaks one of its mechanisms; the suites below must
// kill every one of them: the fuzz corpora (every named seed), the
// exactness tests and the diagnostics assertions. Run it with
//
//	go test -tags mutants -count=1 -timeout 60m -run TestMutants -v ./internal/machine/
//
// (-run 'TestMutants/<name>' for one mutant). Each mutant is applied to a
// copy of the module in a temporary directory, so the checkout is never
// edited. A mutant whose old text is not found exactly once fails: a
// refactor of the code it targets must re-target it on purpose. A mutant
// that every suite survives fails too. The log lists, per mutant, the
// tests that killed it.

// mutant replaces old by new, which must occur exactly once, in file
// (relative to the module root).
type mutant struct {
	name, file, old, new string
}

const engine = "internal/machine/superblock.go"

var mutants = []mutant{
	// The stepped cycle (runBlocks, sbRest).
	{"stepped-cycle-keeps-stale-blocks", engine,
		"				if !st.parked && st.promise == 0 {\n					st.sb, st.pos = m.sbBlock(st.c), 0",
		"				if false {\n					st.sb, st.pos = m.sbBlock(st.c), 0"},
	{"sbRest-drops-the-trap-report", engine,
		"	case m.sbExit&sbExitTrap != 0 && seen == exitNone:\n		seen = exitTrap\n",
		""},
	{"stepped-cycle-ignores-a-watched-store", engine,
		"			if m.watchGp != nil && m.watchDirty() {\n				seen = exitWatched",
		"			if false {\n				seen = exitWatched"},
	{"whole-cycle-skips-its-last-slot", engine,
		"	for s := from; s < n; s++ {",
		"	for s := from; s < n-1; s++ {"},
	{"solo-beside-two-cores-without-a-promise", engine,
		"		if unpromised > 1 {\n			k = 0",
		"		if unpromised > 2 {\n			k = 0"},
	{"solo-cycle-end-services-its-own-slot-again", engine,
		"m.sbRest(m.sbSlot(c.ID)+1, seen)",
		"m.sbRest(m.sbSlot(c.ID), seen)"},

	// The stretch (solo, sbSettle) and the riders beside it.
	{"bulk-credit-leaves-the-bus-bucket", engine,
		"		m.now = end\n		m.bus.skip(span)\n",
		"		m.now = end\n"},
	{"sbSettle-drops-the-rider-credit", engine,
		"		if st.parked {\n			st.c.idle(k)\n			rider = true",
		"		if st.parked {\n			rider = true"},
	{"sbSettle-drops-the-slot-arithmetic", engine,
		"		if mid && m.sbSlot(st.c.ID) > m.sbSlot(solo.c.ID) {",
		"		if false {"},
	{"stretch-ignores-the-rider-bound", engine,
		"		} else if nparked > 0 {\n			k = m.sbRiderBound(k)",
		"		} else if false {\n			k = m.sbRiderBound(k)"},
	{"solo-drops-its-store-checks", engine,
		"		if m.sbExit == 0 && mem.writes == writes {",
		"		if m.sbExit == 0 && mem.writes >= writes {"},
	{"solo-ignores-a-rider-page-store", engine,
		"m.watchGp != nil && m.watchDirty() || m.sbSeen():",
		"m.watchGp != nil && m.watchDirty():"},

	// Diagnostics.
	{"bulk-credit-counts-as-solo", engine,
		"	case solo == nil:\n		m.sbStats.Jumped += n",
		"	case solo == nil:\n		m.sbStats.Solo += n"},
	{"a-load-keeps-the-engine-diagnostics", "internal/machine/state.go",
		"		m.sbStats, m.sbExits, m.sbRewound = SuperblockStats{}, [nBatchExits]uint64{}, [nRewindCauses]uint64{}\n",
		""},
}

// mutantRuns are the suites run against each mutant, in order, until one
// fails: the machine package's fuzz corpora, exactness tests and
// diagnostics assertions, then the root package's local-entry shadow.
var mutantRuns = [][]string{
	{"./internal/machine/", "^(FuzzBatchTrap|FuzzIdleCredit|TestBatchTrapSurvival|TestDeferredObservationExact|TestSoloRidesWithRider|TestIdleCreditAdmission|TestIdleCreditCountsAsJumped|TestAheadSplitExact|TestRunAheadParallelExact|TestMachineStateRoundTrip)$"},
	{".", "^TestLocalTrapShadow$"},
}

func TestMutants(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Fatal(err)
	}
	failed := regexp.MustCompile(`(?m)^\s*--- FAIL: (\S+)`)
	for _, mu := range mutants {
		t.Run(mu.name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join(root, mu.file))
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), mu.old); n != 1 {
				t.Fatalf("old text found %d times in %s: re-target the mutant", n, mu.file)
			}
			dir := t.TempDir()
			copyModule(t, root, dir)
			mutated := strings.Replace(string(src), mu.old, mu.new, 1)
			if err := os.WriteFile(filepath.Join(dir, mu.file), []byte(mutated), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, run := range mutantRuns {
				cmd := exec.Command(goBin, "test", "-count=1", "-timeout", "3m", "-run", run[1], run[0])
				cmd.Dir = dir
				out, err := cmd.CombinedOutput()
				if err == nil {
					continue
				}
				var by []string
				for _, m := range failed.FindAllStringSubmatch(string(out), -1) {
					by = append(by, m[1])
				}
				if bytes.Contains(out, []byte("panic: test timed out")) {
					by = append(by, "(timeout)")
				}
				if len(by) == 0 { // a build failure: show it
					t.Fatalf("%s did not run to a verdict: %v\n%s", run[0], err, out)
				}
				t.Logf("killed by %s", strings.Join(by, " "))
				return
			}
			t.Errorf("survived every suite")
		})
	}
}

// copyModule copies the module at root into dir, leaving out hidden
// directories (version control, build caches).
func copyModule(t *testing.T, root, dir string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
