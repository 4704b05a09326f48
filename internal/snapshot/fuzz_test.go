package snapshot_test

import (
	"encoding/binary"
	"errors"
	"os"
	"testing"

	"rcoe/internal/harness"
	"rcoe/internal/machine"
	"rcoe/internal/snapshot"
)

// container serializes sections into an RCOESNP v1 file by hand, so a seed
// can carry a payload the Writer would never produce.
func container(secs []snapshot.Section) []byte {
	out := []byte{'R', 'C', 'O', 'E', 'S', 'N', 'P', 1}
	out = binary.LittleEndian.AppendUint32(out, snapshot.Version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(secs)))
	for _, s := range secs {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s.Name)))
		out = append(out, s.Name...)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s.Data)))
		out = append(out, s.Data...)
	}
	return out
}

// fuzzSeeds returns both goldens, truncations of the files, and well-formed
// files that get past Parse and fail inside a state walk: for every section
// but the bulk ones, one with that section's payload cut in half and one
// with its first word made huge; and one with the bulk sections dropped.
func fuzzSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for _, path := range []string{"testdata/v1_node.snp", "testdata/v1_edge.snp"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, data, data[:len(data)/2], data[:len(data)-1], data[:17])
		snap, err := snapshot.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		var small []snapshot.Section
		for i, sec := range snap.Sections() {
			if len(sec.Data) > 4096 || len(sec.Data) < 8 {
				continue
			}
			small = append(small, sec)
			cut := append([]snapshot.Section(nil), snap.Sections()...)
			cut[i].Data = sec.Data[:len(sec.Data)/2]
			huge := append([]snapshot.Section(nil), snap.Sections()...)
			huge[i].Data = append(binary.LittleEndian.AppendUint64(nil, 1<<60), sec.Data[8:]...)
			seeds = append(seeds, container(cut), container(huge))
		}
		// Without the bulk sections a load walks every small section and
		// then stops at the missing memory image: an input short enough
		// for the engine to mutate productively.
		seeds = append(seeds, container(small))
	}
	return seeds
}

// named reports whether err is one of the subsystem's two sentinels.
func named(err error) bool {
	return errors.Is(err, snapshot.ErrBadSnapshot) || errors.Is(err, snapshot.ErrIncompatible)
}

// FuzzParse: Parse never panics and every rejection is ErrBadSnapshot.
func FuzzParse(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := snapshot.Parse(data); err != nil && !errors.Is(err, snapshot.ErrBadSnapshot) {
			t.Fatalf("Parse: unnamed error %v", err)
		}
	})
}

// FuzzNodeLoadState loads arbitrary bytes into live targets of both golden
// shapes (a node under its KV client, which walks every layer's state):
// LoadState never panics, every failure is one of the two sentinels, and —
// the Snapshotter contract — a target whose load failed takes the next
// good load.
func FuzzNodeLoadState(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	type target struct {
		run  *harness.KVRun
		good *snapshot.Snapshot
	}
	var targets []target
	for _, tc := range []struct {
		golden string
		build  func() *harness.KVRun
	}{
		{"testdata/v1_node.snp", func() *harness.KVRun {
			run, err := harness.NewKV(nodeOptions())
			if err != nil {
				f.Fatal(err)
			}
			return run
		}},
		{"testdata/v1_edge.snp", func() *harness.KVRun { return newEdgeRun(f, &machine.IntermittentFault{}) }},
	} {
		good, err := snapshot.LoadFile(tc.golden)
		if err != nil {
			f.Fatal(err)
		}
		targets = append(targets, target{tc.build(), good})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := snapshot.Parse(data)
		if err != nil {
			return
		}
		for _, tg := range targets {
			err := tg.run.LoadState(snap)
			if err == nil {
				continue
			}
			if !named(err) {
				t.Fatalf("LoadState: unnamed error %v", err)
			}
			if err := tg.run.LoadState(tg.good); err != nil {
				t.Fatalf("good load after a failed one: %v", err)
			}
		}
	})
}
