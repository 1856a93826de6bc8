package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// The TCP transport moves float64 payloads in length-prefixed frames.
// A frame is a fixed 16-byte header followed by the payload words in
// little-endian IEEE-754 bit patterns — bit patterns, not values, so a
// payload survives the wire bit-identically, NaN payloads included
// (the same property the golden fixtures pin for in-process runs).
//
//	offset  size  field
//	0       2     magic "rf"
//	2       1     version (wireVersion)
//	3       1     kind (FrameKind)
//	4       4     sender rank, uint32 LE
//	8       4     collective sequence number, uint32 LE
//	12      4     payload length in 8-byte words, uint32 LE
//	16      8n    payload, n little-endian float64 bit patterns

// FrameKind tags what a frame carries.
type FrameKind uint8

// Frame kinds. Hello opens a mesh connection and authenticates the
// dialer's rank; Contrib carries a rank's collective contribution to
// the combining hub; Result carries the hub's rank-order-combined
// result back; P2P carries a Send/Recv message. The F32 variants are
// the compressed-payload collective frames: the payload ships as
// 32-bit IEEE-754 words (the header's length field counts those 4-byte
// words), halving the wire footprint of a Hessian batch. The I8
// variants are the int8 dithered tier: the header's length field
// counts payload values, and the body carries one signed byte per
// value plus a 4-byte float32 scale per perf.I8ChunkLen-value chunk
// (wirei8.go) — encoding the frame IS the quantization, so a decoded
// I8 payload equals I8RoundSlice of what the sender passed in.
const (
	FrameHello FrameKind = 1 + iota
	FrameContrib
	FrameResult
	FrameP2P
	FrameContribF32
	FrameResultF32
	FrameContribI8
	FrameResultI8
	frameKindEnd // one past the last valid kind
)

// isF32 reports whether k's payload is encoded as 4-byte float32 words.
func (k FrameKind) isF32() bool {
	return k == FrameContribF32 || k == FrameResultF32
}

// isI8 reports whether k's payload is encoded as chunked dithered int8.
func (k FrameKind) isI8() bool {
	return k == FrameContribI8 || k == FrameResultI8
}

// payloadBytes returns the body length in bytes of an n-value payload
// of kind k.
func (k FrameKind) payloadBytes(n int) int {
	switch {
	case k.isF32():
		return 4 * n
	case k.isI8():
		return i8PayloadLen(n)
	}
	return 8 * n
}

const (
	wireMagic0  = 'r'
	wireMagic1  = 'f'
	wireVersion = 1

	// WireHeaderLen is the fixed frame header size in bytes.
	WireHeaderLen = 16

	// MaxFrameWords caps a frame payload at 64 Mi words (512 MiB): far
	// above any Hessian batch this repo ships, low enough that a
	// corrupt length field cannot drive a multi-gigabyte allocation.
	MaxFrameWords = 1 << 26
)

// Frame is one decoded wire frame.
type Frame struct {
	// Kind tags the frame's role.
	Kind FrameKind
	// Rank is the sender's rank.
	Rank uint32
	// Seq is the collective sequence number (0 for P2P frames).
	Seq uint32
	// Payload is the float64 payload, bit-exact across the wire.
	Payload []float64
}

// Wire codec errors. ReadFrame and DecodeFrame return them wrapped
// with position context; errors.Is matches the sentinel.
var (
	ErrBadMagic    = errors.New("dist: frame has bad magic")
	ErrBadVersion  = errors.New("dist: frame has unknown wire version")
	ErrBadKind     = errors.New("dist: frame has invalid kind")
	ErrFrameTooBig = errors.New("dist: frame payload exceeds MaxFrameWords")
)

// AppendFrame appends the wire encoding of f to dst and returns the
// extended slice. It panics when the payload exceeds MaxFrameWords:
// oversized frames are a programming error on the send side, not a
// recoverable wire condition.
func AppendFrame(dst []byte, f Frame) []byte {
	if len(f.Payload) > MaxFrameWords {
		panic(fmt.Sprintf("dist: frame payload %d words exceeds MaxFrameWords", len(f.Payload)))
	}
	var hdr [WireHeaderLen]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = wireMagic0, wireMagic1, wireVersion, byte(f.Kind)
	binary.LittleEndian.PutUint32(hdr[4:8], f.Rank)
	binary.LittleEndian.PutUint32(hdr[8:12], f.Seq)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(f.Payload)))
	dst = append(dst, hdr[:]...)
	if f.Kind.isF32() {
		for _, v := range f.Payload {
			var w [4]byte
			binary.LittleEndian.PutUint32(w[:], f32ToWire(v))
			dst = append(dst, w[:]...)
		}
		return dst
	}
	if f.Kind.isI8() {
		return appendI8Payload(dst, f.Payload)
	}
	for _, v := range f.Payload {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
		dst = append(dst, w[:]...)
	}
	return dst
}

// parseHeader validates a frame header and returns (kind, rank, seq,
// payload words).
func parseHeader(hdr []byte) (FrameKind, uint32, uint32, int, error) {
	if hdr[0] != wireMagic0 || hdr[1] != wireMagic1 {
		return 0, 0, 0, 0, fmt.Errorf("%w: %#x %#x", ErrBadMagic, hdr[0], hdr[1])
	}
	if hdr[2] != wireVersion {
		return 0, 0, 0, 0, fmt.Errorf("%w: %d", ErrBadVersion, hdr[2])
	}
	kind := FrameKind(hdr[3])
	if kind == 0 || kind >= frameKindEnd {
		return 0, 0, 0, 0, fmt.Errorf("%w: %d", ErrBadKind, hdr[3])
	}
	rank := binary.LittleEndian.Uint32(hdr[4:8])
	seq := binary.LittleEndian.Uint32(hdr[8:12])
	nwords := binary.LittleEndian.Uint32(hdr[12:16])
	if nwords > MaxFrameWords {
		return 0, 0, 0, 0, fmt.Errorf("%w: %d words", ErrFrameTooBig, nwords)
	}
	return kind, rank, seq, int(nwords), nil
}

// DecodeFrame parses one frame from the front of buf, returning the
// frame and the number of bytes consumed. A short buffer returns
// io.ErrUnexpectedEOF; a corrupt header returns the matching sentinel
// error. The payload is freshly allocated, never aliasing buf.
func DecodeFrame(buf []byte) (Frame, int, error) {
	if len(buf) < WireHeaderLen {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	kind, rank, seq, nwords, err := parseHeader(buf[:WireHeaderLen])
	if err != nil {
		return Frame{}, 0, err
	}
	total := WireHeaderLen + kind.payloadBytes(nwords)
	if len(buf) < total {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	f := Frame{Kind: kind, Rank: rank, Seq: seq}
	if nwords > 0 {
		f.Payload = make([]float64, nwords)
		if kind.isI8() {
			decodeI8Payload(f.Payload, buf[WireHeaderLen:total])
			return f, total, nil
		}
		for i := range f.Payload {
			if kind.isF32() {
				f.Payload[i] = f32FromWire(binary.LittleEndian.Uint32(buf[WireHeaderLen+4*i:]))
				continue
			}
			bits := binary.LittleEndian.Uint64(buf[WireHeaderLen+8*i:])
			f.Payload[i] = math.Float64frombits(bits)
		}
	}
	return f, total, nil
}

// ReadFrame reads exactly one frame from r. A clean EOF before any
// header byte returns io.EOF (the peer closed between frames); a
// truncation inside a frame returns io.ErrUnexpectedEOF. The payload
// is freshly allocated per frame, so callers may retain it.
func ReadFrame(r io.Reader) (Frame, error) {
	f, _, err := readFrame(r, nil)
	return f, err
}

// readFrame is ReadFrame reading the encoded header and body through
// buf, grown when a frame does not fit, and returning the buffer for
// the next call: a connection's read loop decodes every frame through
// one buffer. Only the encoded bytes are reused; the decoded payload is
// still freshly allocated.
func readFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	if cap(buf) < WireHeaderLen {
		buf = make([]byte, WireHeaderLen)
	}
	hdr := buf[:WireHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, buf, err
	}
	kind, rank, seq, nwords, err := parseHeader(hdr)
	if err != nil {
		return Frame{}, buf, err
	}
	f := Frame{Kind: kind, Rank: rank, Seq: seq}
	if nwords > 0 {
		n := kind.payloadBytes(nwords)
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		body := buf[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, buf, err
		}
		f.Payload = make([]float64, nwords)
		if kind.isI8() {
			decodeI8Payload(f.Payload, body)
			return f, buf, nil
		}
		for i := range f.Payload {
			if kind.isF32() {
				f.Payload[i] = f32FromWire(binary.LittleEndian.Uint32(body[4*i:]))
				continue
			}
			f.Payload[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
		}
	}
	return f, buf, nil
}
