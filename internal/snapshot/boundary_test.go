package snapshot_test

import (
	"bytes"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"rcoe/internal/snapshot"
)

// hostDerived is the list of what is outside the snapshot boundary: every
// field of a struct reachable from a snapshotted run that no state walk
// serializes, with the reason it need not be. A field of those structs is
// either inside a snapshot image — changing it changes the saved bytes — or
// named here; TestStateBoundary fails for a field that is neither, and for
// an entry that is stale. Keys are "package.Type.field".
var hostDerived = map[string]string{
	// harness
	"harness.KVRun.Sys":            "wiring: the node's system, walked through node",
	"harness.KVRun.NIC":            "wiring: the node's NIC, walked as the machine's dev.0",
	"harness.KVOptions.System":     "the node's copy is the one checked (sys.meta)",
	"harness.KVOptions.MaxCycles":  "bound of Run's loop, not state",
	"harness.Window.node":          "wiring: the run's node, walked through KVRun.node",
	"harness.Window.retry":         "resolved from the retry options, which are checked (harness.meta)",
	"harness.Window.ids":           "scratch of the sorted retransmission scan, refilled by every pass",
	"harness.Window.free":          "released requests kept for reuse: no request in flight is among them",
	"harness.Window.DebugPoison":   "debug switch: the target keeps its own",
	"harness.KVRun.loadFirst":      "request ID of the first preload SET, fixed by NewKV; the unsent SETs are walked as the queue",
	"harness.Node.nic":             "wiring: walked as the machine's dev.0",
	"harness.NodeOptions.System":   "the system's copy is the one checked (sys.meta)",
	"workload.Generator.zipf":      "pure function of the record count, rebuilt by construction",
	"workload.Generator.loadKey":   "scratch of LoadRequest, rewritten by every call",
	"workload.Generator.loadValue": "scratch of LoadRequest, rewritten by every call",

	// core
	"core.Config.Profile":           "only its name is checked (sys.meta): a profile is construction-time",
	"core.Config.BranchSites":       "checked as the sorted key list",
	"core.Config.DisableExecCache":  "accelerator switch: the target keeps its own",
	"core.Config.DisableSuperblock": "accelerator switch: the target keeps its own",
	"core.Config.Trace":             "a snapshot saved without tracing restores into a tracing system (replay triage)",
	"core.System.sh":                "view of the framework region, which lives in simulated RAM",
	"core.Replica.rendezvousCond":   "closure built once per replica; reads the serialized park descriptor",
	"core.Replica.rendezvousDone":   "closure built once per replica; reads the serialized park descriptor",
	"core.System.devWindows":        "construction-time wiring",
	"core.System.timer":             "tick cache, lazily re-derived from Now()",
	"core.System.report":            "belongs to the saved run's detection, dropped on load",
	"core.System.primaryChange":     "hook: construction-time wiring",
	"core.preemptionTimer.period":   "construction-time: tick-cycles is checked (sys.meta)",
	"core.preemptionTimer.next":     "tick cache, re-derived from Now() after a load",
	"core.syncWatchdog.period":      "construction-time: watchdog-cycles is checked (sys.meta)",

	// kernel
	"kernel.Kernel.RID":         "construction-time identity",
	"kernel.Kernel.m":           "wiring",
	"kernel.Kernel.core":        "wiring",
	"kernel.Kernel.lay":         "construction-time layout",
	"kernel.Kernel.canaryWords": "pure function of the replica ID",
	"kernel.Kernel.canaryGen":   "host memo keyed on a page generation, which load bumps",
	"kernel.Kernel.canaryGp":    "construction-time pointer to the canary page's generation",
	"kernel.Kernel.OnPreempt":   "hook: re-wired by the owner",
	"kernel.Kernel.traceWords":  "scratch of AddTraceBytes, rebuilt by every call",
	"kernel.Kernel.userBuf":     "scratch of ReadUser and CopyPhysToUser, refilled by every call",
	"machine.AddrSpace.gen":     "validity key of host-side translation memos, bumped by Invalidate on load",

	// machine
	"machine.Machine.prof":       "construction-time profile (core count and bus rate are checked)",
	"machine.Machine.windows":    "construction-time wiring",
	"machine.Machine.mmioLo":     "construction-time wiring",
	"machine.Machine.mmioHi":     "construction-time wiring",
	"machine.Machine.OnIRQRoute": "hook: construction-time wiring",
	"machine.Machine.rr":         "derived: now % cores",
	"machine.Machine.execCache":  "accelerator switch: the target keeps its own",
	"machine.Machine.superblock": "accelerator switch: the target keeps its own",
	"machine.Machine.parkEpoch":  "park gate memo: a re-armed park evaluates on its first poll",
	"machine.Machine.parkStats":  "host-side diagnostics",
	"machine.Machine.sbExit":     "batch-local flag of the superblock loop",
	"machine.Machine.sbStats":    "host-side diagnostics, restart on load",
	"machine.Machine.sbExits":    "host-side diagnostics, restart on load",
	"machine.Machine.sbRewound":  "host-side diagnostics, restart on load",
	"machine.Machine.sbSolo":     "the core running solo: set and cleared inside one batch, nil whenever host code runs",
	"machine.Machine.sbSoloFrom": "cycle the last solo run is credited up to: only read while sbSolo is set",
	"machine.Machine.sbRun":      "batch state of the superblock loop: each core's run-ahead checkpoint, undo log and remainder, which only resume reads, after comparing the core, its pages and the privacy map with what the run read",
	"machine.Machine.sbAct":      "per-batch scratch of the superblock loop",
	"machine.Machine.sbGated":    "per-batch scratch of the superblock loop",
	"machine.Machine.watchGp":    "pointers into pageGen for device-watched pages, rebuilt per batch",
	"machine.Machine.watchSnap":  "pageGen values at batch entry",
	"machine.Machine.watchPg":    "the device-watched pages, set up with the devices",
	"machine.Machine.pgData":     "privacy map: derived from the address spaces, rebuilt when one changes",
	"machine.Machine.pgWriter":   "privacy map: derived from the address spaces, rebuilt when one changes",
	"machine.Machine.privKeys":   "the address-space keys the privacy map was last checked against",
	"machine.Machine.privSegs":   "what the privacy map was built from",
	"machine.Machine.sbLong":     "per-loop-top scratch of the superblock loop",
	"machine.Machine.runPool":    "host threads for runs ahead side by side",
	"machine.Machine.goOnJob":    "runPool's job (goOnRun), built once with the pool",
	"machine.Machine.goOnLong":   "goOn's arguments to goOnJob, set for the length of a fork",
	"machine.Machine.goOnMore":   "goOn's arguments to goOnJob, set for the length of a fork",
	"machine.Machine.privWatch":  "what the privacy map was built from",
	"machine.Machine.privGen":    "privacy map build count, a validity key of rewound runs",
	"machine.Mem.pageGen":        "mutation generations: validity keys of host-side caches, bumped by load",
	"machine.Mem.writes":         "host-side mutation count, only ever compared within one batch",
	"machine.Mem.uncounted":      "set only while runs ahead overlap at one loop top of a batch",
	"machine.Mem.base":           "identity of the image a rewind may delta against",
	"machine.Mem.baseGen":        "page generations at the last full load of base",
	"machine.Mem.serial":         "host identity of a CopyFrom source",
	"machine.Mem.copySerial":     "identity of the source a CopyFrom may delta against",
	"machine.Mem.copySrcGen":     "the source's page generations at the last CopyFrom",
	"machine.Mem.copyGen":        "page generations right after the last CopyFrom",
	"machine.Core.ID":            "construction-time identity",
	"machine.Core.AS":            "re-pointed at the kernel's address space by its walk",
	"machine.Core.parkCond":      "closure: re-armed by core.rearmPark from the serialized park descriptor",
	"machine.Core.parkDone":      "closure: re-armed by core.rearmPark from the serialized park descriptor",
	"machine.Core.parkGp":        "park gate memo, cleared by Park",
	"machine.Core.parkSeenGen":   "park gate memo, cleared by Park",
	"machine.Core.parkSeenEpoch": "park gate memo, cleared by Park",
	"machine.Core.m":             "wiring",
	"machine.Core.ec":            "translation memo: slots revalidate on the address-space key",
	"machine.Core.sb":            "superblock cache: entries revalidate on address-space and page generations",
	"machine.cache.lineShift":    "construction-time geometry",
	"machine.cache.nlines":       "construction-time geometry (checked as the arrays' length)",
	"machine.cache.pow2":         "construction-time geometry",
	"machine.cache.lineMask":     "construction-time geometry",
	"machine.cache.gen":          "replacement count: validity key of the superblock fetch memo",
	"machine.cache.chunkGen":     "mutation generations of the arrays' chunks, bumped by load",
	"machine.cache.base":         "identity of the image a rewind may delta against",
	"machine.cache.baseGen":      "chunk generations at the last load of base",
	"machine.cache.ram":          "the mapping the arrays live in, kept alive with the cache",
	"device.NIC.mem":             "cache of the machine's memory handle, re-established on the first Tick",
	"device.NIC.DebugPoison":     "debug switch: the target keeps its own",
	"device.slots.free":          "buffers of frames that left the NIC, kept for reuse",
}

// boundary probes which struct fields reachable from a snapshotted root are
// inside its image: a field is inside when changing it changes the saved
// bytes.
type boundary struct {
	t       *testing.T
	root    snapshot.Snapshotter
	base    []byte
	visited map[visit]bool
	inside  map[string]bool // fields proven to be in the image
	outside map[string]bool // fields met and never proven
	listed  map[string]bool // hostDerived entries met
}

// visit identifies one struct instance (a first field shares its parent's
// address, so the type is part of the identity).
type visit struct {
	at  unsafe.Pointer
	typ reflect.Type
}

// differs saves the root and reports whether the image moved off the base.
// A save the mutation breaks (an error, a panic on a zeroed probe value)
// depends on the field just as well.
func (b *boundary) differs() (moved bool) {
	defer func() {
		if recover() != nil {
			moved = true
		}
	}()
	data, err := snapshot.Save(b.root)
	return err != nil || !bytes.Equal(data, b.base)
}

// settable lifts reflect's read-only mark from an unexported field.
func settable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

func ours(t reflect.Type) bool { return strings.HasPrefix(t.PkgPath(), "rcoe/") }

// probe changes f, asks differs, and puts f back. linked reports a value
// that cannot be probed in place (a non-nil pointer or interface): it is
// followed instead.
func (b *boundary) probe(f reflect.Value) (moved, linked bool) {
	old := reflect.New(f.Type()).Elem()
	old.Set(f)
	defer f.Set(old)
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(f.Uint() + 1)
	case reflect.Float64:
		f.SetFloat(f.Float() + 1)
	case reflect.String:
		f.SetString(f.String() + "x")
	case reflect.Array:
		return b.probe(f.Index(0))
	case reflect.Slice:
		switch {
		case f.Len() > 0 && f.Type().Elem().Kind() <= reflect.Float64:
			// A scalar element, in place: the first one that is not zero.
			// Generation-tracked arrays (RAM, the core caches) save a chunk
			// whose generation says it is zero without reading it, so a
			// probe written behind the tracker into such a chunk is not
			// seen, while one into a chunk that already holds data is.
			for i := 0; i < f.Len(); i++ {
				if !f.Index(i).IsZero() {
					return b.probe(f.Index(i))
				}
			}
			return b.probe(f.Index(0))
		case f.Len() > 0:
			// One more of an element it already holds; which one matters
			// for a list only some of whose elements are serialized (the
			// machine's devices).
			for i := 0; i < old.Len() && !moved; i++ {
				f.Set(reflect.Append(old, old.Index(i)))
				moved = b.differs()
			}
			return moved, false
		default:
			f.Set(reflect.Append(old, fresh(f.Type().Elem())))
		}
	case reflect.Map:
		m := reflect.MakeMap(f.Type())
		for it := old.MapRange(); it.Next(); {
			m.SetMapIndex(it.Key(), it.Value())
		}
		key := reflect.New(f.Type().Key()).Elem()
		key.SetUint(0xfff0) // the maps inside the boundary are keyed by IDs and addresses
		m.SetMapIndex(key, fresh(f.Type().Elem()))
		f.Set(m)
	case reflect.Ptr, reflect.Interface:
		if !f.IsNil() {
			return false, true
		}
		f.Set(fresh(f.Type()))
	default: // funcs, channels: nothing to change them to
		return false, false
	}
	return b.differs(), false
}

// fresh returns a value of type t that is visibly not the zero value where
// one can be made: an allocated pointer, an error.
func fresh(t reflect.Type) reflect.Value {
	switch {
	case t.Kind() == reflect.Ptr:
		return reflect.New(t.Elem())
	case t == reflect.TypeOf((*error)(nil)).Elem():
		return reflect.ValueOf(errors.New("probe"))
	}
	return reflect.Zero(t)
}

// walk visits every field of the struct v (addressable) and follows what
// is inside the image.
func (b *boundary) walk(v reflect.Value, name string) {
	if v.Type().Name() != "" {
		if !ours(v.Type()) {
			return
		}
		name = v.Type().String()
	}
	at := visit{unsafe.Pointer(v.UnsafeAddr()), v.Type()}
	if b.visited[at] {
		return
	}
	b.visited[at] = true
	for i := 0; i < v.NumField(); i++ {
		f := settable(v.Field(i))
		key := name + "." + v.Type().Field(i).Name
		_, isListed := hostDerived[key]
		if f.Kind() == reflect.Struct && !isListed {
			b.walk(f, key) // a nested struct is its fields
			continue
		}
		moved, linked := b.inside[key], false
		if !moved {
			moved, linked = b.probe(f)
		}
		switch {
		case isListed:
			if moved && !b.listed[key] {
				b.t.Errorf("%s is listed as host-derived but changing it changes the image", key)
			}
			b.listed[key] = true
		case moved || linked:
			if moved {
				b.inside[key] = true
			}
			b.follow(f, key)
		default:
			b.outside[key] = true
		}
	}
}

// follow descends into the structs a value holds.
func (b *boundary) follow(f reflect.Value, key string) {
	switch f.Kind() {
	case reflect.Ptr, reflect.Interface:
		if !f.IsNil() {
			b.follow(f.Elem(), key)
		}
	case reflect.Struct:
		if f.CanAddr() {
			b.walk(f, key)
		}
	case reflect.Slice, reflect.Array:
		if f.Type().Elem().Kind() > reflect.Float64 {
			for i := 0; i < f.Len(); i++ {
				b.follow(f.Index(i), key)
			}
		}
	case reflect.Map:
		for it := f.MapRange(); it.Next(); {
			b.follow(it.Value(), key)
		}
	}
}

// TestStateBoundary answers "what is inside the state boundary" for every
// struct reachable from a KV run in the edge scenario's state (so every
// list has an element and every optional value is present): each field is
// either in the image or in hostDerived, and hostDerived has no stale entry.
func TestStateBoundary(t *testing.T) {
	run := edgeRun(t)
	base, err := snapshot.Save(run)
	if err != nil {
		t.Fatal(err)
	}
	b := &boundary{
		t: t, root: run, base: base,
		visited: map[visit]bool{},
		inside:  map[string]bool{}, outside: map[string]bool{}, listed: map[string]bool{},
	}
	b.walk(reflect.ValueOf(run).Elem(), "")
	if b.differs() {
		t.Fatal("a probe was not undone: the run no longer saves to the base image")
	}

	var missing []string
	for key := range b.outside {
		if !b.inside[key] {
			missing = append(missing, key)
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		t.Errorf("%s is neither serialized by a state walk nor listed in hostDerived", key)
	}
	for key := range hostDerived {
		if !b.listed[key] {
			t.Errorf("hostDerived lists %s, which no reachable struct has", key)
		}
	}
	t.Logf("%d fields inside the image, %d host-derived", len(b.inside), len(b.listed))
}
