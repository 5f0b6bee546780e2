package proto_test

import (
	"bytes"
	"encoding/gob"
	"testing"
	"time"

	"nvmalloc/internal/proto"
)

// prespanManagerReq is the request envelope as it existed before span
// tracing added ParentSpanID and Spans (but after TTLNanos). Frozen so both
// directions of the gob stream stay verifiable against pre-span daemons.
type prespanManagerReq struct {
	Op             proto.Op
	TraceID        string
	BenID          int
	BenNode        int
	BenAddr        string
	BenDebugAddr   string
	Capacity       int64
	Name           string
	Size           int64
	Parts          []string
	ChunkIdx       int
	Src            string
	FromChunk      int
	NChunks        int
	ExpiresAtNanos int64
	TTLNanos       int64
	WriteVolume    int64
}

// preshardManagerReq is the request envelope as it existed before the
// metadata plane was sharded (no MapEpoch, IDs, Refs, RefReplicas,
// CreateDst). Frozen so pre-shard daemons and clients stay interoperable
// with sharded ones in both directions.
type preshardManagerReq struct {
	Op             proto.Op
	TraceID        string
	ParentSpanID   string
	Spans          []proto.Span
	BenID          int
	BenNode        int
	BenAddr        string
	BenDebugAddr   string
	Capacity       int64
	Name           string
	Size           int64
	Parts          []string
	ChunkIdx       int
	Src            string
	FromChunk      int
	NChunks        int
	ExpiresAtNanos int64
	TTLNanos       int64
	WriteVolume    int64
}

// preshardManagerResp predates the shard-map piggyback (ShardEpoch,
// ShardIndex, ShardCount, ShardPeers) and the cross-shard refcount fields
// (FenceChunks, ForeignFreed).
type preshardManagerResp struct {
	Err             string
	File            proto.FileInfo
	OldRef          proto.ChunkRef
	NewRef          proto.ChunkRef
	NewRefs         []proto.ChunkRef
	Bens            []proto.BenefactorInfo
	ChunkSize       int64
	Expired         []string
	UnderReplicated int
	Repaired        int
	RepairFailed    int
	Lost            []proto.ChunkID
	DebugAddr       string
}

// transcode gob-encodes src and decodes the stream into dst.
func transcode(t *testing.T, src, dst any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(src); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&buf).Decode(dst); err != nil {
		t.Fatal(err)
	}
}

// TestGobPrespanManagerReqDecodesIntoCurrent: a pre-span client's request
// must decode on a current manager with ParentSpanID empty and Spans nil —
// the manager then records no span, exactly the untraced behavior.
func TestGobPrespanManagerReqDecodesIntoCurrent(t *testing.T) {
	old := prespanManagerReq{
		Op: proto.OpCreate, TraceID: "t3", Name: "var", Size: 4096,
		TTLNanos: int64(9 * time.Second),
	}
	var cur proto.ManagerReq
	transcode(t, &old, &cur)
	if cur.Op != proto.OpCreate || cur.Name != "var" || cur.Size != 4096 || cur.TraceID != "t3" {
		t.Fatalf("pre-span fields lost: %+v", cur)
	}
	if cur.TTLNanos != int64(9*time.Second) {
		t.Fatalf("TTLNanos lost: %+v", cur)
	}
	if cur.ParentSpanID != "" || cur.Spans != nil {
		t.Fatalf("span fields = (%q, %v) from a pre-span stream, want zero", cur.ParentSpanID, cur.Spans)
	}
}

// TestGobCurrentManagerReqDecodesIntoPrespan: a current client's traced
// request (ParentSpanID set, even an OpReportSpans batch) must not break a
// pre-span manager — unknown fields are skipped, the rest lands.
func TestGobCurrentManagerReqDecodesIntoPrespan(t *testing.T) {
	cur := proto.ManagerReq{
		Op: proto.OpCreate, TraceID: "t4", ParentSpanID: "span-1",
		Name: "var", Size: 8192,
		Spans: []proto.Span{{Trace: "t4", ID: "span-1", Name: "client.put", DurNanos: 5}},
	}
	var old prespanManagerReq
	transcode(t, &cur, &old)
	if old.Op != proto.OpCreate || old.Name != "var" || old.Size != 8192 || old.TraceID != "t4" {
		t.Fatalf("shared fields lost decoding into pre-span struct: %+v", old)
	}
}

// TestGobPreshardReqDecodesIntoCurrent: a pre-shard client's request must
// decode on a sharded manager with MapEpoch zero — the epoch fence is
// skipped for legacy traffic, so old clients keep working against shard 0
// of a sharded deployment.
func TestGobPreshardReqDecodesIntoCurrent(t *testing.T) {
	old := preshardManagerReq{
		Op: proto.OpCreate, TraceID: "t7", Name: "var", Size: 4096,
		TTLNanos: int64(2 * time.Second),
	}
	var cur proto.ManagerReq
	transcode(t, &old, &cur)
	if cur.Op != proto.OpCreate || cur.Name != "var" || cur.Size != 4096 || cur.TraceID != "t7" {
		t.Fatalf("pre-shard fields lost: %+v", cur)
	}
	if cur.MapEpoch != 0 {
		t.Fatalf("MapEpoch = %d from a pre-shard stream, want 0 (never fenced)", cur.MapEpoch)
	}
	if cur.IDs != nil || cur.Refs != nil || cur.RefReplicas != nil || cur.CreateDst {
		t.Fatalf("cross-shard fields nonzero from a pre-shard stream: %+v", cur)
	}
}

// TestGobCurrentReqDecodesIntoPreshard: a sharded client's epoch-stamped
// request (even an OpLinkRefs with explicit refs) must not break a
// pre-shard manager — unknown fields are skipped, the rest lands.
func TestGobCurrentReqDecodesIntoPreshard(t *testing.T) {
	cur := proto.ManagerReq{
		Op: proto.OpLinkRefs, TraceID: "t8", Name: "ckpt", Size: 8192,
		MapEpoch: 7,
		IDs:      []proto.ChunkID{3, 5},
		Refs:     []proto.ChunkRef{{Benefactor: 1, ID: 3}},
		RefReplicas: [][]proto.ChunkRef{
			{{Benefactor: 1, ID: 3}, {Benefactor: 2, ID: 3}},
		},
		CreateDst: true,
	}
	var old preshardManagerReq
	transcode(t, &cur, &old)
	if old.Op != proto.OpLinkRefs || old.Name != "ckpt" || old.Size != 8192 || old.TraceID != "t8" {
		t.Fatalf("shared fields lost decoding into pre-shard struct: %+v", old)
	}
}

// TestGobPreshardRespDecodesIntoCurrent: a pre-shard manager's response
// must decode on a sharded client with ShardEpoch zero — the client's
// absorb path treats epoch 0 as "unsharded peer" and leaves its map alone.
func TestGobPreshardRespDecodesIntoCurrent(t *testing.T) {
	old := preshardManagerResp{
		File:      proto.FileInfo{Name: "f", Size: 42, Chunks: []proto.ChunkRef{{Benefactor: 0, ID: 3}}},
		ChunkSize: 1 << 16,
	}
	var cur proto.ManagerResp
	transcode(t, &old, &cur)
	if cur.File.Name != "f" || cur.File.Size != 42 || cur.ChunkSize != 1<<16 {
		t.Fatalf("pre-shard response fields lost: %+v", cur)
	}
	if cur.ShardEpoch != 0 || cur.ShardIndex != 0 || cur.ShardCount != 0 || cur.ShardPeers != nil {
		t.Fatalf("shard-map fields nonzero from a pre-shard stream: %+v", cur)
	}
	if cur.FenceChunks != nil || cur.ForeignFreed != nil {
		t.Fatalf("cross-shard fields nonzero from a pre-shard stream: %+v", cur)
	}
}

// TestGobCurrentRespDecodesIntoPreshard: a sharded manager's stamped
// response (epoch, roster, fence list) must stay decodable by a pre-shard
// client — the stamp is invisible to it, the payload lands.
func TestGobCurrentRespDecodesIntoPreshard(t *testing.T) {
	cur := proto.ManagerResp{
		File:       proto.FileInfo{Name: "f", Size: 42},
		ShardEpoch: 9, ShardIndex: 1, ShardCount: 2,
		ShardPeers:   []string{"a:1", "b:2"},
		FenceChunks:  []proto.ChunkRef{{Benefactor: 0, ID: 7}},
		ForeignFreed: []proto.ChunkRef{{Benefactor: 1, ID: 8}},
	}
	var old preshardManagerResp
	transcode(t, &cur, &old)
	if old.File.Name != "f" || old.File.Size != 42 {
		t.Fatalf("shared fields lost decoding into pre-shard struct: %+v", old)
	}
}
