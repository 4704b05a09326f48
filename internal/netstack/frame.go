// Package netstack defines the wire framing between the YCSB-style load
// generator and the replicated key-value server (the lwIP + Redis protocol
// stand-in). Frames are fixed-layout so the ISA-level server can parse
// them with constant offsets.
//
// Request frame:
//
//	[0]    op (1=GET, 2=SET, 3=SCAN)
//	[1]    key length (<= MaxKey)
//	[2:4]  value length (SET) or scan count (SCAN), little-endian
//	[4:8]  request ID, little-endian
//	[8:]   key bytes, then value bytes
//
// Response frame:
//
//	[0]    status (0=OK, 1=not found, 2=error)
//	[1]    reserved
//	[2:4]  value length, little-endian
//	[4:8]  request ID
//	[8:]   value bytes
package netstack

import (
	"errors"
	"fmt"
)

// Operation codes.
const (
	OpGet  = 1
	OpSet  = 2
	OpScan = 3
)

// Response status codes.
const (
	StatusOK       = 0
	StatusNotFound = 1
	StatusError    = 2
)

// Size limits. MaxFrame bounds both directions and fits the NIC mailbox.
const (
	MaxKey   = 31
	MaxValue = 512
	MaxFrame = 8 + MaxKey + MaxValue
	// HeaderBytes is the fixed frame header size.
	HeaderBytes = 8
)

// ErrBadFrame reports a malformed frame.
var ErrBadFrame = errors.New("netstack: malformed frame")

// Request is a decoded client request.
type Request struct {
	Op    byte
	ReqID uint32
	Key   []byte
	Value []byte
	// ScanCount is the number of records a SCAN asks for.
	ScanCount int
}

// Response is a decoded server response.
type Response struct {
	Status byte
	ReqID  uint32
	Value  []byte
}

// EncodeRequest serialises a request.
func EncodeRequest(r Request) ([]byte, error) {
	if len(r.Key) == 0 || len(r.Key) > MaxKey {
		return nil, fmt.Errorf("%w: key length %d", ErrBadFrame, len(r.Key))
	}
	vlen := len(r.Value)
	if r.Op == OpScan {
		vlen = r.ScanCount
	}
	if vlen > MaxValue {
		return nil, fmt.Errorf("%w: value length %d", ErrBadFrame, vlen)
	}
	dst := make([]byte, 0, HeaderBytes+len(r.Key)+len(r.Value))
	dst = append(dst, r.Op, byte(len(r.Key)), byte(vlen), byte(vlen>>8),
		byte(r.ReqID), byte(r.ReqID>>8), byte(r.ReqID>>16), byte(r.ReqID>>24))
	dst = append(dst, r.Key...)
	if r.Op != OpScan {
		dst = append(dst, r.Value...)
	}
	return dst, nil
}

// DecodeResponseInPlace parses a response frame without copying the
// value: the returned Response's Value aliases b, so it is only valid
// while the caller owns the frame and must be copied to outlive it.
// The client window validates and discards each response before
// touching the next frame, so the alias never escapes the iteration.
func DecodeResponseInPlace(b []byte) (Response, error) {
	if len(b) < HeaderBytes {
		return Response{}, fmt.Errorf("%w: short response (%d bytes)", ErrBadFrame, len(b))
	}
	vlen := int(b[2]) | int(b[3])<<8
	if HeaderBytes+vlen > len(b) {
		return Response{}, fmt.Errorf("%w: value length %d exceeds frame", ErrBadFrame, vlen)
	}
	return Response{
		Status: b[0],
		ReqID:  uint32(b[4]) | uint32(b[5])<<8 | uint32(b[6])<<16 | uint32(b[7])<<24,
		Value:  b[HeaderBytes : HeaderBytes+vlen : HeaderBytes+vlen],
	}, nil
}

// DecodeResponse parses a response frame into freshly allocated storage.
func DecodeResponse(b []byte) (Response, error) {
	r, err := DecodeResponseInPlace(b)
	if err != nil {
		return Response{}, err
	}
	r.Value = append([]byte(nil), r.Value...)
	return r, nil
}

// DecodeRequestInPlace parses a request frame without copying: the
// returned Request's Key and Value alias b (capacity-clipped, so an
// append cannot reach the bytes behind them) and stay valid only while
// b is neither written nor recycled. The clients keep each encoded
// frame immutable for the life of the request, so a SET's key and value
// are read back out of the frame instead of being retained beside it.
// The decoder is total and strict: every length field is bounds-checked
// against both the protocol limits and the actual buffer, and unknown
// opcodes are rejected rather than decoded as a GET-shaped frame.
func DecodeRequestInPlace(b []byte) (Request, error) {
	if len(b) < HeaderBytes {
		return Request{}, fmt.Errorf("%w: short request", ErrBadFrame)
	}
	klen := int(b[1])
	vlen := int(b[2]) | int(b[3])<<8
	r := Request{
		Op:    b[0],
		ReqID: uint32(b[4]) | uint32(b[5])<<8 | uint32(b[6])<<16 | uint32(b[7])<<24,
	}
	if r.Op != OpGet && r.Op != OpSet && r.Op != OpScan {
		return Request{}, fmt.Errorf("%w: unknown op %d", ErrBadFrame, r.Op)
	}
	keyEnd := HeaderBytes + klen
	if klen == 0 || klen > MaxKey || keyEnd > len(b) {
		return Request{}, fmt.Errorf("%w: key length %d", ErrBadFrame, klen)
	}
	r.Key = b[HeaderBytes:keyEnd:keyEnd]
	switch r.Op {
	case OpScan:
		if vlen > MaxValue {
			return Request{}, fmt.Errorf("%w: scan count %d", ErrBadFrame, vlen)
		}
		r.ScanCount = vlen
	case OpSet:
		if vlen > MaxValue || keyEnd+vlen > len(b) {
			return Request{}, fmt.Errorf("%w: value length %d", ErrBadFrame, vlen)
		}
		r.Value = b[keyEnd : keyEnd+vlen : keyEnd+vlen]
	}
	return r, nil
}

// EncodeResponse serialises a response (used by tests and the in-Go
// server model).
func EncodeResponse(r Response) []byte {
	buf := make([]byte, 0, HeaderBytes+len(r.Value))
	vlen := len(r.Value)
	buf = append(buf, r.Status, 0, byte(vlen), byte(vlen>>8),
		byte(r.ReqID), byte(r.ReqID>>8), byte(r.ReqID>>16), byte(r.ReqID>>24))
	return append(buf, r.Value...)
}
