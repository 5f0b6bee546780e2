package proto

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// The golden hex strings below are the frozen NVM1 wire encodings of the
// frames they sit next to. They must NEVER change: a diff here means the
// frame format changed and old and new nodes can no longer interoperate.
// (Payload bytes are not part of the golden — they follow the encoded
// header+meta verbatim on the wire.)
var goldenFrames = []struct {
	name    string
	frame   Frame
	payload string // appended after the encoded header+meta
	hex     string
}{
	{
		name:  "get request",
		frame: Frame{Op: FrameGet, ID: 0x0102030405060708, Trace: "t1", Parent: "s1", Var: "v"},
		hex:   "4e564d31010100000102030405060708000000000000000000000008000000000274310273310176",
	},
	{
		name:    "get response with payload",
		frame:   Frame{Op: FrameGet, Resp: true, ID: 0x0102030405060708, PayloadLen: 4},
		payload: "abcd",
		hex:     "4e564d310101010001020304050607080000000000000000000000010000000400",
	},
	{
		name: "putpages request",
		frame: Frame{Op: FramePutPages, ID: 9, Aux: 2, Trace: "t2",
			PageOffs: []int64{0, 8192}, PageLens: []int{4, 4}, PayloadLen: 8},
		payload: "ABCDEFGH",
		hex:     "4e564d3101030000000000000000000900000000000000020000000b000000080274320000020004804004",
	},
	{
		name:  "error response",
		frame: Frame{Op: FramePut, Resp: true, ID: 7, Err: "boom"},
		hex:   "4e564d310102030000000000000000070000000000000000000000050000000004626f6f6d",
	},
	{
		name:  "copy request",
		frame: Frame{Op: FrameCopy, ID: 11, Aux: 10, Trace: "t3", Var: "x"},
		hex:   "4e564d3101050000000000000000000b000000000000000a0000000600000000027433000178",
	},
	{
		name:  "delete request",
		frame: Frame{Op: FrameDelete, ID: 12, Trace: "t4", Var: "v"},
		hex:   "4e564d3101040000000000000000000c00000000000000000000000600000000027434000176",
	},
	{
		// Three chunks in one frame: the header ID, then aux = 2 further
		// IDs as uvarints after the three strings (300 takes two bytes).
		name:  "delete request, 3 IDs",
		frame: Frame{Op: FrameDelete, ID: 12, Aux: 2, Trace: "t4", Var: "v", MoreIDs: []ChunkID{13, 300}},
		hex:   "4e564d3101040000000000000000000c00000000000000020000000900000000027434000176" + "0dac02",
	},
}

// TestFrameGoldenEncode freezes the encode direction: today's encoder must
// reproduce the golden bytes exactly.
func TestFrameGoldenEncode(t *testing.T) {
	for _, g := range goldenFrames {
		f := g.frame
		got := hex.EncodeToString(f.AppendTo(nil))
		if got != g.hex {
			t.Errorf("%s: encoding drifted from frozen bytes\n got %s\nwant %s", g.name, got, g.hex)
		}
	}
}

// TestFrameGoldenDecode freezes the decode direction: the golden bytes must
// parse back into the original frame, and the payload must arrive intact.
func TestFrameGoldenDecode(t *testing.T) {
	for _, g := range goldenFrames {
		raw, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatalf("%s: bad golden hex: %v", g.name, err)
		}
		raw = append(raw, g.payload...)

		var f Frame
		payload, err := ReadFrame(bytes.NewReader(raw), &f, nil, -1)
		if err != nil {
			t.Errorf("%s: decode: %v", g.name, err)
			continue
		}
		if string(payload) != g.payload {
			t.Errorf("%s: payload = %q, want %q", g.name, payload, g.payload)
		}
		want := g.frame
		got := f
		got.meta = nil
		// Decode normalizes empty page tables to zero-length slices.
		if len(got.PageOffs) == 0 {
			got.PageOffs = want.PageOffs
		}
		if len(got.PageLens) == 0 {
			got.PageLens = want.PageLens
		}
		if len(got.MoreIDs) == 0 {
			got.MoreIDs = want.MoreIDs
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded frame = %+v, want %+v", g.name, got, want)
		}
	}
}

// TestFrameRoundTrip exercises encode→decode through a reused Frame and a
// real arena, including payloads, and verifies field carry-over between
// frames is fully overwritten.
func TestFrameRoundTrip(t *testing.T) {
	arena := NewArena(4096)
	var enc, dec Frame
	var buf bytes.Buffer
	var scratch []byte
	cases := []struct {
		f       Frame
		payload string
	}{
		{Frame{Op: FramePut, ID: 1, Trace: "trace-a", Parent: "span-a", Var: "/x", PayloadLen: 5}, "hello"},
		{Frame{Op: FrameGet, ID: 2}, ""},
		{Frame{Op: FramePutPages, ID: 3, Aux: 3, PageOffs: []int64{0, 100, 4000}, PageLens: []int{2, 2, 2}, PayloadLen: 6}, "abcdef"},
		{Frame{Op: FrameDelete, Resp: true, ID: 4, Err: "gone"}, ""},
		{Frame{Op: FrameCopy, ID: 6, Aux: 5, Var: "v"}, ""},
		{Frame{Op: FrameDelete, ID: 7, Aux: 3, Trace: "t", MoreIDs: []ChunkID{8, 1 << 40, 9}}, ""},
		{Frame{Op: FrameDelete, ID: 10}, ""},
	}
	for _, c := range cases {
		enc = c.f
		buf.Reset()
		scratch = enc.AppendTo(scratch[:0])
		buf.Write(scratch)
		buf.WriteString(c.payload)

		payload, err := ReadFrame(&buf, &dec, arena, 8192)
		if err != nil {
			t.Fatalf("op %d: decode: %v", c.f.Op, err)
		}
		if string(payload) != c.payload {
			t.Fatalf("op %d: payload = %q, want %q", c.f.Op, payload, c.payload)
		}
		arena.Put(payload)
		got := dec
		got.meta = nil
		want := c.f
		if len(got.PageOffs) == 0 {
			got.PageOffs = want.PageOffs
		}
		if len(got.PageLens) == 0 {
			got.PageLens = want.PageLens
		}
		if len(got.MoreIDs) == 0 {
			got.MoreIDs = want.MoreIDs
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: decoded = %+v, want %+v", c.f.Op, got, want)
		}
	}
}

// corrupt returns the get-request golden with one mutation applied.
func corrupt(t *testing.T, mutate func([]byte) []byte) []byte {
	t.Helper()
	raw, err := hex.DecodeString(goldenFrames[0].hex)
	if err != nil {
		t.Fatal(err)
	}
	return mutate(raw)
}

func TestReadFrameRejectsMalformed(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"bad version", func(b []byte) []byte { b[4] = 9; return b }},
		{"zero op", func(b []byte) []byte { b[5] = 0; return b }},
		{"unknown op", func(b []byte) []byte { b[5] = 200; return b }},
		{"oversize meta", func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[24:], MaxFrameMeta+1)
			return b
		}},
		{"oversize payload", func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[28:], 1<<30)
			return b
		}},
		{"truncated meta", func(b []byte) []byte { return b[:len(b)-2] }},
		{"trailing meta bytes", func(b []byte) []byte {
			b = append(b, 0, 0)
			binary.BigEndian.PutUint32(b[24:], binary.BigEndian.Uint32(b[24:])+2)
			return b
		}},
		{"meta string overruns section", func(b []byte) []byte {
			b[FrameHeaderLen] = 200 // trace length claims 200 bytes in an 8-byte section
			return b
		}},
		{"short payload", func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[28:], 100) // declares 100 bytes, stream has none
			return b
		}},
	}
	for _, c := range cases {
		raw := corrupt(t, c.mutate)
		var f Frame
		payload, err := ReadFrame(bytes.NewReader(raw), &f, nil, 1<<20)
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", c.name, err)
		}
		if payload != nil {
			t.Errorf("%s: returned payload %d bytes, want nil", c.name, len(payload))
		}
	}
}

func TestReadFramePageTableConsistency(t *testing.T) {
	encode := func(f *Frame, payload string) []byte {
		return append(f.AppendTo(nil), payload...)
	}
	t.Run("length sum must match payload", func(t *testing.T) {
		f := &Frame{Op: FramePutPages, ID: 1, Aux: 2, PageOffs: []int64{0, 8}, PageLens: []int{4, 3}, PayloadLen: 8}
		var dec Frame
		if _, err := ReadFrame(bytes.NewReader(encode(f, "ABCDEFGH")), &dec, nil, -1); !errors.Is(err, ErrBadFrame) {
			t.Errorf("err = %v, want ErrBadFrame", err)
		}
	})
	t.Run("absurd page count", func(t *testing.T) {
		raw := encode(&Frame{Op: FramePutPages, ID: 1}, "")
		// Rewrite the meta section: empty trace/parent/var then a huge count.
		meta := []byte{0, 0, 0}
		meta = binary.AppendUvarint(meta, 1<<40)
		binary.BigEndian.PutUint32(raw[24:], uint32(len(meta)))
		raw = append(raw[:FrameHeaderLen], meta...)
		var dec Frame
		if _, err := ReadFrame(bytes.NewReader(raw), &dec, nil, -1); !errors.Is(err, ErrBadFrame) {
			t.Errorf("err = %v, want ErrBadFrame", err)
		}
	})
	t.Run("absurd page offset", func(t *testing.T) {
		f := &Frame{Op: FramePutPages, ID: 1, Aux: 1, PageOffs: []int64{1 << 50}, PageLens: []int{4}, PayloadLen: 4}
		var dec Frame
		if _, err := ReadFrame(bytes.NewReader(encode(f, "ABCD")), &dec, nil, -1); !errors.Is(err, ErrBadFrame) {
			t.Errorf("err = %v, want ErrBadFrame", err)
		}
	})
}

func TestReadFrameDeleteIDList(t *testing.T) {
	// deleteWithMeta is a delete request whose aux and meta tail (after
	// three empty strings) are set by hand.
	deleteWithMeta := func(aux uint64, tail ...byte) []byte {
		raw := (&Frame{Op: FrameDelete, ID: 1}).AppendTo(nil)
		meta := append([]byte{0, 0, 0}, tail...)
		binary.BigEndian.PutUint64(raw[16:], aux)
		binary.BigEndian.PutUint32(raw[24:], uint32(len(meta)))
		return append(raw[:FrameHeaderLen], meta...)
	}
	t.Run("absurd ID count rejected before allocating", func(t *testing.T) {
		var dec Frame
		if _, err := ReadFrame(bytes.NewReader(deleteWithMeta(1<<40, 5)), &dec, nil, -1); !errors.Is(err, ErrBadFrame) {
			t.Errorf("err = %v, want ErrBadFrame", err)
		}
		if cap(dec.MoreIDs) != 0 {
			t.Errorf("rejected frame grew the ID list to cap %d", cap(dec.MoreIDs))
		}
	})
	t.Run("truncated ID list", func(t *testing.T) {
		var dec Frame
		// aux 3 but two IDs, the second cut mid-uvarint.
		if _, err := ReadFrame(bytes.NewReader(deleteWithMeta(3, 5, 0x80, 0x80)), &dec, nil, -1); !errors.Is(err, ErrBadFrame) {
			t.Errorf("err = %v, want ErrBadFrame", err)
		}
	})
	t.Run("IDs past aux are trailing bytes", func(t *testing.T) {
		var dec Frame
		if _, err := ReadFrame(bytes.NewReader(deleteWithMeta(1, 5, 6)), &dec, nil, -1); !errors.Is(err, ErrBadFrame) {
			t.Errorf("err = %v, want ErrBadFrame", err)
		}
	})
	t.Run("response carries no list", func(t *testing.T) {
		raw := (&Frame{Op: FrameDelete, Resp: true, ID: 1, Aux: 2}).AppendTo(nil)
		var dec Frame
		if _, err := ReadFrame(bytes.NewReader(raw), &dec, nil, -1); err != nil || len(dec.MoreIDs) != 0 {
			t.Errorf("err = %v, MoreIDs = %v; want a clean decode with no IDs", err, dec.MoreIDs)
		}
	})
}

// TestReadFramePayloadBound verifies the maxPayload gate fires before the
// payload is read: the reader must not consume the declared bytes.
func TestReadFramePayloadBound(t *testing.T) {
	f := &Frame{Op: FramePut, ID: 1, PayloadLen: 1024}
	raw := append(f.AppendTo(nil), bytes.Repeat([]byte{'x'}, 1024)...)
	r := bytes.NewReader(raw)
	var dec Frame
	if _, err := ReadFrame(r, &dec, nil, 512); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
	// Only the fixed header may have been consumed: the gate must fire
	// before the meta section and payload are read or staged.
	if want := len(raw) - FrameHeaderLen; r.Len() != want {
		t.Errorf("reader consumed bytes past the header after rejection: %d left, want %d", r.Len(), want)
	}
}

func TestReadFrameEOFBetweenFrames(t *testing.T) {
	var f Frame
	if _, err := ReadFrame(strings.NewReader(""), &f, nil, -1); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestFrameOpMapping(t *testing.T) {
	for _, op := range []Op{OpGetChunk, OpPutChunk, OpPutPages, OpDeleteChunk, OpCopyChunk} {
		fop, ok := FrameOpOf(op)
		if !ok {
			t.Fatalf("FrameOpOf(%q) not ok", op)
		}
		if back := fop.Op(); back != op {
			t.Errorf("FrameOpOf(%q).Op() = %q", op, back)
		}
	}
	if _, ok := FrameOpOf(OpCreate); ok {
		t.Error("manager op OpCreate must have no binary frame")
	}
}

func TestArenaLeaseRecycle(t *testing.T) {
	a := NewArena(4096)
	if a.ChunkBytes() != 4096 {
		t.Fatalf("ChunkBytes = %d", a.ChunkBytes())
	}
	b := a.Get(100)
	if len(b) != 100 || cap(b) != 4096 {
		t.Fatalf("Get(100): len %d cap %d, want 100/4096", len(b), cap(b))
	}
	a.Put(b)

	big := a.Get(5000) // beyond geometry: plain allocation
	if len(big) != 5000 {
		t.Fatalf("oversize Get: len %d", len(big))
	}
	a.Put(big)       // ignored (foreign capacity)
	a.Put(nil)       // ignored
	a.Put([]byte{1}) // ignored

	var nilArena *Arena
	if nilArena.ChunkBytes() != 0 {
		t.Error("nil arena ChunkBytes != 0")
	}
	if got := nilArena.Get(16); len(got) != 16 {
		t.Errorf("nil arena Get: len %d", len(got))
	}
	nilArena.Put(make([]byte, 16))
}

// TestArenaZeroAlloc is the codec-level allocation gate: a steady-state
// Get/Put cycle must not allocate at all.
func TestArenaZeroAlloc(t *testing.T) {
	a := NewArena(4096)
	a.Put(a.Get(4096)) // warm both pools
	allocs := testing.AllocsPerRun(1000, func() {
		b := a.Get(4096)
		a.Put(b)
	})
	if allocs != 0 {
		t.Errorf("arena Get/Put allocates %v per op, want 0", allocs)
	}
}

// TestFrameCodecZeroAlloc gates the encode and decode hot paths: with a
// reused Frame, scratch buffer, and arena, a full request round trip through
// the codec must stay allocation-free apart from the decoded meta strings.
func TestFrameCodecZeroAlloc(t *testing.T) {
	arena := NewArena(4096)
	payloadSrc := bytes.Repeat([]byte{0xAB}, 4096)
	var enc, dec Frame
	var scratch, wire []byte

	encode := func() {
		enc.Op = FramePut
		enc.Resp = false
		enc.ID = 42
		enc.Aux = 0
		enc.Trace, enc.Parent, enc.Var, enc.Err = "", "", "", ""
		enc.PageOffs, enc.PageLens = enc.PageOffs[:0], enc.PageLens[:0]
		enc.PayloadLen = len(payloadSrc)
		scratch = enc.AppendTo(scratch[:0])
		wire = append(wire[:0], scratch...)
		wire = append(wire, payloadSrc...)
	}
	encode() // warm scratch capacities

	allocs := testing.AllocsPerRun(200, encode)
	if allocs != 0 {
		t.Errorf("encode allocates %v per frame, want 0", allocs)
	}

	r := bytes.NewReader(nil)
	decode := func() {
		r.Reset(wire)
		payload, err := ReadFrame(r, &dec, arena, 8192)
		if err != nil {
			t.Fatal(err)
		}
		arena.Put(payload)
	}
	decode() // warm arena + meta scratch
	allocs = testing.AllocsPerRun(200, decode)
	if allocs != 0 {
		t.Errorf("decode allocates %v per frame, want 0", allocs)
	}
}

// FuzzDecodeFrame throws arbitrary bytes at ReadFrame: it must never panic,
// never return a payload longer than the declared bound, and any frame it
// does accept must survive a re-encode → re-decode cycle unchanged (byte
// canonicality is not required — uvarints admit non-minimal forms — but
// semantic stability is).
func FuzzDecodeFrame(f *testing.F) {
	for _, g := range goldenFrames {
		raw, _ := hex.DecodeString(g.hex)
		f.Add(append(raw, g.payload...))
	}
	f.Add([]byte("NVM1"))
	f.Add(bytes.Repeat([]byte{0xB1}, 64))

	arena := NewArena(4096)
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		payload, err := ReadFrame(bytes.NewReader(data), &fr, arena, 8192)
		if err != nil {
			if payload != nil {
				t.Fatalf("error %v with non-nil payload", err)
			}
			return
		}
		if len(payload) > 8192 {
			t.Fatalf("payload %d bytes exceeds maxPayload", len(payload))
		}
		if len(payload) != fr.PayloadLen {
			t.Fatalf("payload %d bytes, declared %d", len(payload), fr.PayloadLen)
		}

		wire2 := append(fr.AppendTo(nil), payload...)
		var fr2 Frame
		payload2, err := ReadFrame(bytes.NewReader(wire2), &fr2, arena, 8192)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		if !bytes.Equal(payload, payload2) {
			t.Fatal("payload changed across re-encode cycle")
		}
		a, b := fr, fr2
		a.meta, b.meta = nil, nil
		if len(a.PageOffs) == 0 && len(b.PageOffs) == 0 {
			a.PageOffs, b.PageOffs = nil, nil
		}
		if len(a.PageLens) == 0 && len(b.PageLens) == 0 {
			a.PageLens, b.PageLens = nil, nil
		}
		if len(a.MoreIDs) == 0 && len(b.MoreIDs) == 0 {
			a.MoreIDs, b.MoreIDs = nil, nil
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("frame changed across re-encode cycle\n got %+v\nwant %+v", b, a)
		}
		arena.Put(payload)
		arena.Put(payload2)
	})
}
