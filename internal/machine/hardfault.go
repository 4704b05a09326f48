package machine

// This file implements the persistent (hard) fault model: stuck-at bits
// that re-assert on every access and survive overwrites, an intermittent
// fault device with a seeded duty cycle, and per-core bus-token
// starvation. Transient flips (Mem.FlipBit) and device-level corruption
// (internal/device) complete the fault-class taxonomy.
//
// Stuck-at bits maintain one invariant: the backing byte array always has
// every registered stuck bit asserted. SetStuck asserts immediately; every
// mutation path re-asserts its touched range after writing; and the read
// paths re-assert before serving, which catches writes that bypassed the
// mutation APIs (device DMA through a Slice window). Each assertion that
// actually changes a byte bumps that page's mutation generation, so the
// predecoded instruction cache and the translation memos revalidate
// exactly as they do for any other store — the exec-cache invisibility
// contract holds with hard faults active (see TestStuckBitExecCache).

// stuckMask describes the stuck bits of one physical byte: `or` bits are
// stuck at 1, `andNot` bits are stuck at 0.
type stuckMask struct {
	or     byte
	andNot byte
}

// SetStuck registers a persistent stuck-at fault: bit (0-7) of the byte at
// addr reads as value (0 or 1) regardless of what is written to it. The
// fault is asserted immediately and re-asserted after every subsequent
// mutation of the byte.
func (m *Mem) SetStuck(addr uint64, bit uint, value uint) error {
	if err := m.check(addr, 1); err != nil {
		return err
	}
	if m.stuck == nil {
		m.stuck = make(map[uint64]stuckMask)
	}
	msk := m.stuck[addr]
	b := byte(1) << (bit % 8)
	if value != 0 {
		msk.or |= b
		msk.andNot &^= b
	} else {
		msk.andNot |= b
		msk.or &^= b
	}
	m.stuck[addr] = msk
	// Assert now; touch unconditionally so caches drop any entry decoded
	// from the pre-fault value even when the current byte already agrees.
	m.applyStuck(addr, msk)
	m.touch(addr, 1)
	return nil
}

// ClearStuck removes the stuck-at fault on bit of the byte at addr (e.g. a
// replaced component). The byte keeps its current value.
func (m *Mem) ClearStuck(addr uint64, bit uint) {
	msk, ok := m.stuck[addr]
	if !ok {
		return
	}
	b := byte(1) << (bit % 8)
	msk.or &^= b
	msk.andNot &^= b
	if msk.or == 0 && msk.andNot == 0 {
		delete(m.stuck, addr)
	} else {
		m.stuck[addr] = msk
	}
}

// StuckBits returns the number of bytes with at least one stuck bit.
func (m *Mem) StuckBits() int { return len(m.stuck) }

// applyStuck forces one byte to its stuck value, bumping the page
// generation when this changes it.
func (m *Mem) applyStuck(addr uint64, msk stuckMask) {
	old := m.bytes[addr]
	v := (old | msk.or) &^ msk.andNot
	if v != old {
		m.bytes[addr] = v
		m.touch(addr, 1)
	}
}

// assertStuck re-asserts every stuck bit overlapping [addr, addr+n). The
// stuck set is tiny (a campaign injects a handful of faults), so a scan
// over it is cheaper than any range index.
func (m *Mem) assertStuck(addr uint64, n int) {
	end := addr + uint64(n)
	for a, msk := range m.stuck {
		if a >= addr && a < end {
			m.applyStuck(a, msk)
		}
	}
}

// IntermittentFault is a machine.Device that asserts a stuck-at bit with a
// seeded duty cycle: the bit is stuck during ON phases and behaves
// normally during OFF phases, with phase lengths jittered
// deterministically from the seed — the classic marginal-component fault
// that escapes boot-time tests (§VI of Xia et al.'s co-design argument).
type IntermittentFault struct {
	// Addr/Bit/Value locate the fault as in Mem.SetStuck.
	Addr  uint64
	Bit   uint
	Value uint
	// OnCycles/OffCycles are the mean phase lengths; actual lengths vary
	// in [mean/2, 3*mean/2) from the seeded generator.
	OnCycles, OffCycles uint64
	// Seed drives the phase jitter (0 = a fixed default).
	Seed uint64

	on     bool
	next   uint64
	seeded bool
	rng    uint64
}

// Tick implements machine.Device: toggle the fault at phase boundaries.
func (f *IntermittentFault) Tick(m *Machine) {
	now := m.Now()
	if !f.seeded {
		f.seeded = true
		f.rng = f.Seed
		if f.rng == 0 {
			f.rng = 0x9E3779B97F4A7C15
		}
		if f.OnCycles == 0 {
			f.OnCycles = 10_000
		}
		if f.OffCycles == 0 {
			f.OffCycles = 40_000
		}
		f.next = now + f.phase(f.OffCycles)
		return
	}
	if now < f.next {
		return
	}
	if f.on {
		f.on = false
		m.Mem().ClearStuck(f.Addr, f.Bit)
		f.next = now + f.phase(f.OffCycles)
	} else {
		f.on = true
		_ = m.Mem().SetStuck(f.Addr, f.Bit, f.Value)
		f.next = now + f.phase(f.OnCycles)
	}
}

// NextEvent implements machine.EventSource: the fault only acts at its
// next phase boundary, so a batch may run up to it.
func (f *IntermittentFault) NextEvent(now uint64) uint64 {
	if !f.seeded {
		return now + 1
	}
	if f.next <= now {
		return now + 1
	}
	return f.next
}

// On reports whether the fault is currently asserted.
func (f *IntermittentFault) On() bool { return f.on }

// phase draws a jittered phase length in [mean/2, 3*mean/2).
func (f *IntermittentFault) phase(mean uint64) uint64 {
	f.rng ^= f.rng << 13
	f.rng ^= f.rng >> 7
	f.rng ^= f.rng << 17
	if mean < 2 {
		return 1
	}
	return mean/2 + f.rng%mean
}

// StarveBus permanently denies bus grants to one core, modeling an
// arbiter or token-distribution fault: the core's block operations stall
// forever while its peers proceed. Pass a negative core to clear.
func (m *Machine) StarveBus(core int) {
	m.bus.starve = core
}

// BusStarved returns the starved core, or -1.
func (m *Machine) BusStarved() int { return m.bus.starve }
