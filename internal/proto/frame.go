package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary chunk framing ("NVM1").
//
// The chunk data ops between clients and benefactors — get, put, putpages,
// delchunk, copychunk — dominate the store's wire traffic. NVM1 is their
// only wire form: a fixed 32-byte header, a small varint metadata section,
// and the payload bytes appended raw, so a sender can scatter-gather the
// caller's buffer straight onto the socket and a receiver can read the
// payload straight into an arena-leased buffer. Low-rate metadata ops
// against the manager are gob envelopes instead.
//
// Frame layout (all integers big-endian):
//
//	off  len  field
//	0    4    magic "NVM1"
//	4    1    version (1)
//	5    1    op (FrameGet..FrameCopy)
//	6    1    flags (bit0 response, bit1 error)
//	7    1    reserved (0)
//	8    8    chunk ID
//	16   8    aux (copychunk: source chunk ID; putpages: page count;
//	          delete: number of further chunk IDs; else 0)
//	24   4    meta length M
//	28   4    payload length P
//	32   M    meta section
//	32+M P    payload
//
// The meta section carries uvarint-length-prefixed strings. A request holds
// trace ID, parent span ID, and variable name (the span-propagation
// fields), followed — for putpages — by a uvarint page count and that many
// (offset, length) uvarint pairs slicing the payload into pages, or — for
// delete — by aux further chunk IDs as uvarints, deleted after the header's
// ID (a delete with aux 0 names one chunk and carries no list). A response
// holds only the error string.
//
// Connection handshake: a client opens each benefactor connection by
// sending the single byte Preamble (0xB1) and waiting for the server to
// echo it. A server drops a connection whose first byte is anything else,
// and a client that does not get the echo fails the dial (a transient
// error its caller retries). The byte is the wire's version gate. See
// DESIGN.md §13.

// Preamble is the first byte a client sends on a fresh benefactor
// connection, echoed back by the server.
const Preamble byte = 0xB1

// FrameVersion is the NVM1 frame format version this package speaks.
const FrameVersion byte = 1

// FrameHeaderLen is the fixed frame header size in bytes.
const FrameHeaderLen = 32

// MaxFrameMeta bounds the declared meta-section length; a frame claiming
// more is malformed (the section holds three short strings and at most a
// page table, never megabytes).
const MaxFrameMeta = 1 << 20

// ErrBadFrame reports a malformed NVM1 frame: bad magic, unknown version
// or op, an over-limit declared length, or an inconsistent meta section.
// The connection's framing is no longer trustworthy; servers log and drop.
var ErrBadFrame = errors.New("nvm store: malformed frame")

// FrameOp is the binary op code of one chunk data op.
type FrameOp byte

// Frame op codes (wire values — frozen).
const (
	FrameGet      FrameOp = 1
	FramePut      FrameOp = 2
	FramePutPages FrameOp = 3
	FrameDelete   FrameOp = 4
	FrameCopy     FrameOp = 5
)

// FrameOpOf maps a chunk data op to its binary op code; ok is false for ops
// that have no binary frame (manager metadata ops).
func FrameOpOf(op Op) (FrameOp, bool) {
	switch op {
	case OpGetChunk:
		return FrameGet, true
	case OpPutChunk:
		return FramePut, true
	case OpPutPages:
		return FramePutPages, true
	case OpDeleteChunk:
		return FrameDelete, true
	case OpCopyChunk:
		return FrameCopy, true
	}
	return 0, false
}

// Op maps a binary op code back to the shared op name ("" for codes off the
// wire spec — ReadFrame never produces one).
func (f FrameOp) Op() Op {
	switch f {
	case FrameGet:
		return OpGetChunk
	case FramePut:
		return OpPutChunk
	case FramePutPages:
		return OpPutPages
	case FrameDelete:
		return OpDeleteChunk
	case FrameCopy:
		return OpCopyChunk
	}
	return ""
}

const (
	frameFlagResp = 1 << 0
	frameFlagErr  = 1 << 1
)

// Frame is the in-memory form of one NVM1 frame header + meta section. The
// payload travels separately (AppendTo callers scatter-gather it from the
// caller's buffer; ReadFrame returns it as an arena lease) so it is never
// staged through the Frame.
//
// A Frame is reusable: ReadFrame overwrites every field and AppendTo reads
// them, recycling the internal meta scratch. Not safe for concurrent use.
type Frame struct {
	Op   FrameOp
	Resp bool // response frame (flags bit0)

	ID  ChunkID
	Aux uint64 // FrameCopy requests: source chunk ID; FramePutPages: page count; FrameDelete: len(MoreIDs)

	// Request meta (span propagation, PR 5).
	Trace, Parent, Var string
	// Response meta.
	Err string
	// FramePutPages requests: parallel page offsets/lengths slicing the
	// payload (sum of lengths == PayloadLen).
	PageOffs []int64
	PageLens []int
	// FrameDelete requests: the chunks deleted after ID, carried in the
	// meta section, never the payload (a payload leases a chunk-sized
	// arena buffer).
	MoreIDs []ChunkID

	// PayloadLen is the payload byte count declared in the header.
	PayloadLen int

	meta []byte // encode/decode scratch, recycled across uses
}

func appendFrameString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendTo appends the encoded header and meta section to dst and returns
// the extended slice. The payload (PayloadLen bytes) is NOT appended — the
// caller writes it separately (net.Buffers) to avoid the staging copy.
func (f *Frame) AppendTo(dst []byte) []byte {
	m := f.meta[:0]
	if f.Resp {
		m = appendFrameString(m, f.Err)
	} else {
		m = appendFrameString(m, f.Trace)
		m = appendFrameString(m, f.Parent)
		m = appendFrameString(m, f.Var)
		if f.Op == FramePutPages {
			m = binary.AppendUvarint(m, uint64(len(f.PageOffs)))
			for i, off := range f.PageOffs {
				m = binary.AppendUvarint(m, uint64(off))
				m = binary.AppendUvarint(m, uint64(f.PageLens[i]))
			}
		}
		if f.Op == FrameDelete {
			for _, id := range f.MoreIDs {
				m = binary.AppendUvarint(m, uint64(id))
			}
		}
	}
	f.meta = m

	var flags byte
	if f.Resp {
		flags |= frameFlagResp
	}
	if f.Err != "" {
		flags |= frameFlagErr
	}
	var hdr [FrameHeaderLen]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 'N', 'V', 'M', '1'
	hdr[4] = FrameVersion
	hdr[5] = byte(f.Op)
	hdr[6] = flags
	binary.BigEndian.PutUint64(hdr[8:], uint64(f.ID))
	binary.BigEndian.PutUint64(hdr[16:], f.Aux)
	binary.BigEndian.PutUint32(hdr[24:], uint32(len(m)))
	binary.BigEndian.PutUint32(hdr[28:], uint32(f.PayloadLen))
	dst = append(dst, hdr[:]...)
	return append(dst, m...)
}

// frameString decodes one uvarint-length-prefixed string from m starting at
// pos. Empty strings decode without allocating.
func frameString(m []byte, pos int) (string, int, error) {
	n, w := binary.Uvarint(m[pos:])
	if w <= 0 || n > uint64(len(m)-pos-w) {
		return "", 0, fmt.Errorf("%w: truncated meta string", ErrBadFrame)
	}
	pos += w
	if n == 0 {
		return "", pos, nil
	}
	return string(m[pos : pos+int(n)]), pos + int(n), nil
}

// ReadFrame reads one frame from r into f and returns its payload, leased
// from arena (nil payload for PayloadLen 0). Declared lengths are validated
// BEFORE any allocation or bulk read: a frame claiming a meta section over
// MaxFrameMeta or a payload over maxPayload fails with ErrBadFrame without
// consuming the claimed bytes, so a malformed or hostile peer cannot make
// the server stage an arbitrarily large buffer. On error the stream
// position is indeterminate and the connection must be dropped.
func ReadFrame(r io.Reader, f *Frame, arena *Arena, maxPayload int) ([]byte, error) {
	// The header is read into the frame's meta scratch (grown to hold it)
	// rather than a local array: a local passed through the io.Reader
	// interface escapes, costing one heap allocation per frame. By the time
	// the scratch is reused for the meta section every header field has been
	// parsed out.
	if cap(f.meta) < FrameHeaderLen {
		f.meta = make([]byte, FrameHeaderLen)
	}
	hdr := f.meta[:FrameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err // clean EOF = peer closed between frames
	}
	if hdr[0] != 'N' || hdr[1] != 'V' || hdr[2] != 'M' || hdr[3] != '1' {
		return nil, fmt.Errorf("%w: bad magic % x", ErrBadFrame, hdr[:4])
	}
	if hdr[4] != FrameVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, hdr[4])
	}
	op := FrameOp(hdr[5])
	if op < FrameGet || op > FrameCopy {
		return nil, fmt.Errorf("%w: unknown op %d", ErrBadFrame, hdr[5])
	}
	flags := hdr[6]
	// Undefined flag bits and the reserved byte must be zero in version 1 so
	// a future version can assign them meaning without ambiguity.
	if flags&^(frameFlagResp|frameFlagErr) != 0 || hdr[7] != 0 {
		return nil, fmt.Errorf("%w: nonzero reserved bits", ErrBadFrame)
	}
	metaLen := binary.BigEndian.Uint32(hdr[24:])
	payloadLen := binary.BigEndian.Uint32(hdr[28:])
	if metaLen > MaxFrameMeta {
		return nil, fmt.Errorf("%w: meta section %d bytes exceeds limit %d", ErrBadFrame, metaLen, MaxFrameMeta)
	}
	if maxPayload >= 0 && payloadLen > uint32(maxPayload) {
		return nil, fmt.Errorf("%w: declared payload %d bytes exceeds limit %d", ErrBadFrame, payloadLen, maxPayload)
	}

	f.Op = op
	f.Resp = flags&frameFlagResp != 0
	f.ID = ChunkID(binary.BigEndian.Uint64(hdr[8:]))
	f.Aux = binary.BigEndian.Uint64(hdr[16:])
	f.Trace, f.Parent, f.Var, f.Err = "", "", "", ""
	f.PageOffs, f.PageLens = f.PageOffs[:0], f.PageLens[:0]
	f.MoreIDs = f.MoreIDs[:0]
	f.PayloadLen = int(payloadLen)

	if cap(f.meta) < int(metaLen) {
		f.meta = make([]byte, metaLen)
	}
	m := f.meta[:metaLen]
	if _, err := io.ReadFull(r, m); err != nil {
		return nil, fmt.Errorf("%w: short meta section: %v", ErrBadFrame, err)
	}
	var err error
	pos := 0
	if f.Resp {
		if f.Err, pos, err = frameString(m, pos); err != nil {
			return nil, err
		}
	} else {
		if f.Trace, pos, err = frameString(m, pos); err != nil {
			return nil, err
		}
		if f.Parent, pos, err = frameString(m, pos); err != nil {
			return nil, err
		}
		if f.Var, pos, err = frameString(m, pos); err != nil {
			return nil, err
		}
		if op == FramePutPages {
			n, w := binary.Uvarint(m[pos:])
			// Each page table entry costs at least two meta bytes, so the
			// remaining meta length bounds a sane page count.
			if w <= 0 || n > uint64(len(m)-pos-w)/2+1 {
				return nil, fmt.Errorf("%w: bad page count", ErrBadFrame)
			}
			pos += w
			var sum uint64
			for i := uint64(0); i < n; i++ {
				off, w := binary.Uvarint(m[pos:])
				if w <= 0 {
					return nil, fmt.Errorf("%w: truncated page table", ErrBadFrame)
				}
				pos += w
				ln, w := binary.Uvarint(m[pos:])
				if w <= 0 {
					return nil, fmt.Errorf("%w: truncated page table", ErrBadFrame)
				}
				pos += w
				if off > 1<<40 || ln > uint64(payloadLen) {
					return nil, fmt.Errorf("%w: page [%d,+%d) out of range", ErrBadFrame, off, ln)
				}
				sum += ln
				f.PageOffs = append(f.PageOffs, int64(off))
				f.PageLens = append(f.PageLens, int(ln))
			}
			if sum != uint64(payloadLen) {
				return nil, fmt.Errorf("%w: page lengths sum %d, payload %d", ErrBadFrame, sum, payloadLen)
			}
		}
		if op == FrameDelete {
			// Each further ID costs at least one meta byte, so the
			// remaining meta length bounds a sane count.
			if f.Aux > uint64(len(m)-pos) {
				return nil, fmt.Errorf("%w: %d further chunk IDs in %d meta bytes", ErrBadFrame, f.Aux, len(m)-pos)
			}
			for i := uint64(0); i < f.Aux; i++ {
				id, w := binary.Uvarint(m[pos:])
				if w <= 0 {
					return nil, fmt.Errorf("%w: truncated chunk ID list", ErrBadFrame)
				}
				pos += w
				f.MoreIDs = append(f.MoreIDs, ChunkID(id))
			}
		}
	}
	if pos != len(m) {
		return nil, fmt.Errorf("%w: %d trailing meta bytes", ErrBadFrame, len(m)-pos)
	}
	if (flags&frameFlagErr != 0) != (f.Err != "") {
		return nil, fmt.Errorf("%w: error flag disagrees with error string", ErrBadFrame)
	}

	if payloadLen == 0 {
		return nil, nil
	}
	payload := arena.Get(int(payloadLen))
	if _, err := io.ReadFull(r, payload); err != nil {
		arena.Put(payload)
		return nil, fmt.Errorf("%w: short payload: %v", ErrBadFrame, err)
	}
	return payload, nil
}
