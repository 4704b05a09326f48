package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// Binary trace format: a fixed header followed by one ring section per
// replica ring and one for the system ring. All integers little-endian.
//
//	[8]byte  magic "RCOETRC\x01"
//	uint32   replica ring count
//	uint32   ring capacity (events)
//	per ring (replicas in order, then the system ring):
//	  uint64 total events ever recorded
//	  uint32 retained event count
//	  retained × Event (8 uint64 words: Seq Cycle Kind LC Branches IP Arg1 Arg2)

var traceMagic = [8]byte{'R', 'C', 'O', 'E', 'T', 'R', 'C', 1}

// ErrBadTraceFile reports a corrupt or foreign trace file.
var ErrBadTraceFile = errors.New("trace: bad trace file")

const eventWords = 8

func (e Event) words() [eventWords]uint64 {
	return [eventWords]uint64{e.Seq, e.Cycle, uint64(e.Kind), e.LC, e.Branches, e.IP, e.Arg1, e.Arg2}
}

func eventFromWords(w [eventWords]uint64) Event {
	return Event{Seq: w[0], Cycle: w[1], Kind: Kind(w[2]), LC: w[3], Branches: w[4], IP: w[5], Arg1: w[6], Arg2: w[7]}
}

// Save writes the recorder's full contents (all replica rings plus the
// system ring) to w.
func (r *Recorder) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return err
	}
	hdr := [2]uint32{uint32(len(r.rings)), uint32(r.sys.Cap())}
	if err := binary.Write(bw, binary.LittleEndian, hdr[:]); err != nil {
		return err
	}
	rings := append(append([]*Ring{}, r.rings...), r.sys)
	for _, ring := range rings {
		if err := binary.Write(bw, binary.LittleEndian, ring.Total()); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(ring.Len())); err != nil {
			return err
		}
		for i := 0; i < ring.Len(); i++ {
			w := ring.At(i).words()
			if err := binary.Write(bw, binary.LittleEndian, w[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Shape reads a saved trace's header and returns the ring count and
// per-ring capacity it declares: what a caller holding untrusted bytes needs
// to decide whether the trace fits before Load allocates the rings.
func Shape(rd io.Reader) (replicas, capacity int, err error) {
	var magic [8]byte
	if _, err := io.ReadFull(rd, magic[:]); err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrBadTraceFile, err)
	}
	if magic != traceMagic {
		return 0, 0, fmt.Errorf("%w: bad magic", ErrBadTraceFile)
	}
	var hdr [2]uint32
	if err := binary.Read(rd, binary.LittleEndian, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("%w: truncated header", ErrBadTraceFile)
	}
	replicas, capacity = int(hdr[0]), int(hdr[1])
	if replicas < 0 || replicas > 64 || capacity <= 0 || capacity > 1<<28 {
		return 0, 0, fmt.Errorf("%w: implausible header (%d rings, cap %d)", ErrBadTraceFile, replicas, capacity)
	}
	return replicas, capacity, nil
}

// Load reads a trace file written by Save. The returned recorder carries
// the same retained events and totals as the one saved.
func Load(rd io.Reader) (*Recorder, error) {
	br := bufio.NewReader(rd)
	replicas, capacity, err := Shape(br)
	if err != nil {
		return nil, err
	}
	rec := NewRecorder(replicas, capacity)
	rings := append(append([]*Ring{}, rec.rings...), rec.sys)
	for _, ring := range rings {
		var total uint64
		var retained uint32
		if err := binary.Read(br, binary.LittleEndian, &total); err != nil {
			return nil, fmt.Errorf("%w: truncated ring header", ErrBadTraceFile)
		}
		if err := binary.Read(br, binary.LittleEndian, &retained); err != nil {
			return nil, fmt.Errorf("%w: truncated ring header", ErrBadTraceFile)
		}
		want := total
		if want > uint64(capacity) {
			want = uint64(capacity)
		}
		if uint64(retained) != want {
			return nil, fmt.Errorf("%w: ring claims %d retained of %d total (cap %d)", ErrBadTraceFile, retained, total, capacity)
		}
		// Place events directly so saved sequence numbers and the
		// wraparound position (Total/Dropped) round-trip exactly.
		ring.next = total
		start := total - uint64(retained)
		for i := uint64(0); i < uint64(retained); i++ {
			var w [eventWords]uint64
			if err := binary.Read(br, binary.LittleEndian, w[:]); err != nil {
				return nil, fmt.Errorf("%w: truncated event", ErrBadTraceFile)
			}
			ring.buf[(start+i)%uint64(capacity)] = eventFromWords(w)
		}
	}
	return rec, nil
}

// SaveFile writes the trace to path.
func (r *Recorder) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a trace written by SaveFile.
func LoadFile(path string) (*Recorder, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
