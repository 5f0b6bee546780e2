package router

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"nvmalloc/internal/manager"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/shardmap"
	"nvmalloc/internal/store"
)

const testChunk = 4096

// fakeConn records every request and answers with reply (a zero reply when
// nil).
type fakeConn struct {
	n     int
	reqs  []proto.ManagerReq
	trail []string // "op@shard ids", one per request
	reply func(shard int, req proto.ManagerReq) (proto.ManagerResp, error)
}

func (f *fakeConn) Shards() int      { return f.n }
func (f *fakeConn) ChunkSize() int64 { return testChunk }

func (f *fakeConn) Call(_ store.Ctx, shard int, req proto.ManagerReq) (proto.ManagerResp, error) {
	f.reqs = append(f.reqs, req)
	f.trail = append(f.trail, fmt.Sprintf("%s@%d %v", req.Op, shard, req.IDs))
	if f.reply == nil {
		return proto.ManagerResp{}, nil
	}
	return f.reply(shard, req)
}

// nameOn returns a file name the n-shard map routes to shard.
func nameOn(t *testing.T, prefix string, shard, n int) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		if name := fmt.Sprintf("%s%d", prefix, i); shardmap.ShardFor(name, n) == shard {
			return name
		}
	}
	t.Fatalf("no %q-prefixed name routes to shard %d/%d", prefix, shard, n)
	return ""
}

// TestOneShardLinkProtocolStampsSpans: at one shard Link and Derive run
// the same export → retain → link protocol as above it, with nothing to
// retain — every chunk is the destination shard's own — and every request
// carries the caller's trace and parent span.
func TestOneShardLinkProtocolStampsSpans(t *testing.T) {
	f := &fakeConn{n: 1}
	f.reply = func(_ int, req proto.ManagerReq) (proto.ManagerResp, error) {
		switch req.Op {
		case proto.OpLookup, proto.OpExportRange:
			return proto.ManagerResp{File: proto.FileInfo{Size: testChunk, Chunks: []proto.ChunkRef{{ID: 1}}}}, nil
		}
		return proto.ManagerResp{}, nil
	}
	r := New(f)
	ctx := store.WithSpan(nil, store.SpanInfo{Trace: "t1", Parent: "s1", Var: "ckpt"})
	if _, err := r.Link(ctx, "ckpt", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Derive(ctx, "view", "ckpt", 1, 2, 2*testChunk); err != nil {
		t.Fatal(err)
	}
	if err := r.SetTTL(ctx, "view", 0); err != nil {
		t.Fatal(err)
	}
	want := []string{"lookup@0 []", "lookup@0 []", "linkrefs@0 []", "exportrange@0 []", "linkrefs@0 []", "setttl@0 []"}
	if !reflect.DeepEqual(f.trail, want) {
		t.Fatalf("requests %v, want %v", f.trail, want)
	}
	for _, req := range f.reqs {
		if req.TraceID != "t1" || req.ParentSpanID != "s1" {
			t.Fatalf("%s stamped (%q, %q), want (t1, s1)", req.Op, req.TraceID, req.ParentSpanID)
		}
	}
}

// TestShardedLinkReleasesHoldsOnAbort: a cross-shard link holds the chunks
// the destination shard does not own at their owner, and a failed commit
// releases exactly those holds.
func TestShardedLinkReleasesHoldsOnAbort(t *testing.T) {
	part, dst := nameOn(t, "part", 0, 2), nameOn(t, "ckpt", 1, 2)
	f := &fakeConn{n: 2}
	f.reply = func(_ int, req proto.ManagerReq) (proto.ManagerResp, error) {
		switch req.Op {
		case proto.OpLookup: // chunks 1 and 3 minted by shard 0, 2 by shard 1
			return proto.ManagerResp{File: proto.FileInfo{Name: part, Size: 3 * testChunk,
				Chunks: []proto.ChunkRef{{ID: 1}, {ID: 2}, {ID: 3}}}}, nil
		case proto.OpLinkRefs: // refused, as a live shard refuses
			return proto.ManagerResp{Err: proto.ErrNoSuchFile.Error()}, proto.ErrNoSuchFile
		}
		return proto.ManagerResp{}, nil
	}
	if _, err := New(f).Link(nil, dst, []string{part}); !errors.Is(err, proto.ErrNoSuchFile) {
		t.Fatalf("link = %v, want the commit's ErrNoSuchFile", err)
	}
	want := []string{"lookup@0 []", "retainrefs@0 [1 3]", "linkrefs@1 []", "releaserefs@0 [1 3]"}
	if !reflect.DeepEqual(f.trail, want) {
		t.Fatalf("requests %v, want %v", f.trail, want)
	}
}

// TestRetainRollsBack: a retain refused at one owner rolls back the holds
// already taken at the others; a rollback release that fails does not
// replace the retain's error.
func TestRetainRollsBack(t *testing.T) {
	src, dst := nameOn(t, "ckpt", 0, 3), nameOn(t, "view", 0, 3)
	f := &fakeConn{n: 3}
	f.reply = func(shard int, req proto.ManagerReq) (proto.ManagerResp, error) {
		switch req.Op {
		case proto.OpExportRange: // chunk 2 minted by shard 1, 3 by shard 2
			return proto.ManagerResp{File: proto.FileInfo{Chunks: []proto.ChunkRef{{ID: 2}, {ID: 3}}}}, nil
		case proto.OpRetainRefs:
			if shard == 2 {
				return proto.ManagerResp{}, proto.ErrNoSuchChunk
			}
		case proto.OpReleaseRefs:
			return proto.ManagerResp{}, errors.New("shard unreachable")
		}
		return proto.ManagerResp{}, nil
	}
	if _, err := New(f).Derive(nil, dst, src, 0, 2, 2*testChunk); !errors.Is(err, proto.ErrNoSuchChunk) {
		t.Fatalf("derive = %v, want the refused retain's ErrNoSuchChunk", err)
	}
	want := []string{"exportrange@0 []", "retainrefs@1 [2]", "retainrefs@2 [3]", "releaserefs@1 [2]"}
	if !reflect.DeepEqual(f.trail, want) {
		t.Fatalf("requests %v, want %v", f.trail, want)
	}
}

// TestDeleteAndRemapReleaseForeignHolds: the foreign references a Delete or
// a Remap sheds are released at the shards that minted them.
func TestDeleteAndRemapReleaseForeignHolds(t *testing.T) {
	f := &fakeConn{n: 2}
	f.reply = func(_ int, req proto.ManagerReq) (proto.ManagerResp, error) {
		switch req.Op {
		case proto.OpDelete:
			return proto.ManagerResp{ForeignFreed: []proto.ChunkRef{{ID: 2}, {ID: 4}}}, nil
		case proto.OpRemap:
			return proto.ManagerResp{NewRefs: []proto.ChunkRef{{ID: 5}}, ForeignFreed: []proto.ChunkRef{{ID: 1}}}, nil
		}
		return proto.ManagerResp{}, nil
	}
	r := New(f)
	name := nameOn(t, "var", 0, 2)
	if err := r.Delete(nil, name); err != nil {
		t.Fatal(err)
	}
	fresh, err := r.Remap(nil, name, 0)
	if err != nil || !reflect.DeepEqual(fresh, []proto.ChunkRef{{ID: 5}}) {
		t.Fatalf("remap = %v, %v; want [{ID: 5}]", fresh, err)
	}
	want := []string{"delete@0 []", "releaserefs@1 [2 4]", "remap@0 []", "releaserefs@0 [1]"}
	if !reflect.DeepEqual(f.trail, want) {
		t.Fatalf("requests %v, want %v", f.trail, want)
	}
}

// applyConn is a Conn over in-process manager shards: Call applies the
// request at the shard, as a live one would, and answers with its reply —
// or, for a request lose matches, with a transport error once the shard
// has applied it: the reply was lost on the way back.
type applyConn struct {
	mgrs []*manager.Manager
	lose func(req proto.ManagerReq) bool
}

func (c *applyConn) Shards() int      { return len(c.mgrs) }
func (c *applyConn) ChunkSize() int64 { return testChunk }

func (c *applyConn) Call(_ store.Ctx, shard int, req proto.ManagerReq) (proto.ManagerResp, error) {
	resp, _ := c.mgrs[shard].Apply(&req, 0)
	if c.lose != nil && c.lose(req) {
		return proto.ManagerResp{}, errors.New("connection reset by peer")
	}
	return resp, proto.WireErr(resp.Err)
}

// newApplyConn returns an applyConn over n fresh shards sharing two
// benefactors.
func newApplyConn(n int) *applyConn {
	c := &applyConn{}
	for i := 0; i < n; i++ {
		m := manager.New(testChunk, manager.RoundRobin)
		m.SetShard(i, n)
		for b := 0; b < 2; b++ {
			m.Register(proto.BenefactorInfo{ID: b, Node: b, Capacity: 64 * testChunk}, "", 0)
		}
		c.mgrs = append(c.mgrs, m)
	}
	return c
}

// TestShardedLinkKeepsHoldsWhenReplyLost: an OpLinkRefs whose reply is
// lost may have committed, so the cross-shard link or derive keeps the
// holds it took: once the source is deleted, the owner still holds every
// chunk the destination references.
func TestShardedLinkKeepsHoldsWhenReplyLost(t *testing.T) {
	src, dst := nameOn(t, "var", 0, 2), nameOn(t, "ckpt", 1, 2)
	for _, op := range []string{"link", "derive"} {
		t.Run(op, func(t *testing.T) {
			c := newApplyConn(2)
			r := New(c)
			fi, err := r.Create(nil, src, 2*testChunk)
			if err != nil {
				t.Fatal(err)
			}
			c.lose = func(req proto.ManagerReq) bool { return req.Op == proto.OpLinkRefs }
			if op == "link" {
				if _, err := r.Create(nil, dst, 0); err != nil {
					t.Fatal(err)
				}
				_, err = r.Link(nil, dst, []string{src})
			} else {
				_, err = r.Derive(nil, dst, src, 0, 2, 2*testChunk)
			}
			if err == nil {
				t.Fatalf("%s succeeded with its reply lost", op)
			}
			c.lose = nil
			if err := r.Delete(nil, src); err != nil {
				t.Fatal(err)
			}
			for _, ref := range fi.Chunks {
				owner, foreign := c.mgrs[0].Refcount(ref.ID), c.mgrs[1].ForeignRefs(ref.ID)
				if foreign != 1 || owner < foreign {
					t.Errorf("chunk %d: owner refs=%d, %s references it %d times", ref.ID, owner, dst, foreign)
				}
			}
			if err := manager.CheckCluster(c.mgrs); err != nil {
				t.Error(err)
			}
		})
	}
}
