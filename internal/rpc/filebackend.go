package rpc

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"nvmalloc/internal/obs"
	"nvmalloc/internal/proto"
)

// FileBackend stores chunk payloads as files in a directory.
type FileBackend struct {
	dir string
	// arena, when set (SetArena), pools the per-chunk read buffer: Get
	// leases from it instead of allocating per call, and leases come back
	// via Recycle once the server has written the response. Nil falls back
	// to plain allocation.
	arena *proto.Arena
	// Device-level metrics (nil until SetObs): actual bytes moved to and
	// from the backing files, and the time each transfer took. These sit a
	// layer below the benefactor's RPC counters — the gap between them is
	// read-modify-write amplification.
	readBytes, writeBytes *obs.Counter
	readLat, writeLat     *obs.Histogram
}

// NewFileBackend creates (if needed) and uses dir for chunk files.
func NewFileBackend(dir string) (*FileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &FileBackend{dir: dir}, nil
}

// SetObs attaches device-level metrics (ssd.read_bytes, ssd.write_bytes,
// ssd.read.latency, ssd.write.latency) to the backend. Call before serving.
func (f *FileBackend) SetObs(o *obs.Obs) {
	f.readBytes = o.Reg.Counter("ssd.read_bytes")
	f.writeBytes = o.Reg.Counter("ssd.write_bytes")
	f.readLat = o.Reg.Histogram("ssd.read.latency")
	f.writeLat = o.Reg.Histogram("ssd.write.latency")
}

// SetArena attaches a chunk-geometry buffer arena; Get then leases its
// result buffers from it instead of allocating. Call before serving.
func (f *FileBackend) SetArena(a *proto.Arena) { f.arena = a }

// RetainsPut implements benefactor.BufferPolicy: Put persists the bytes
// before returning and keeps no reference, so callers' buffers go straight
// through without a defensive copy.
func (f *FileBackend) RetainsPut() bool { return false }

// PrivateGet implements benefactor.BufferPolicy: Get returns a fresh (or
// arena-leased) buffer the caller owns outright.
func (f *FileBackend) PrivateGet() bool { return true }

// Recycle implements benefactor.Recycler: a finished Get buffer returns to
// the arena (no-op without one).
func (f *FileBackend) Recycle(b []byte) { f.arena.Put(b) }

func (f *FileBackend) path(id proto.ChunkID) string {
	return filepath.Join(f.dir, fmt.Sprintf("chunk-%016x", uint64(id)))
}

// Put implements benefactor.Backend. The payload lands in a temp file in
// the same directory and is renamed into place, so a benefactor that
// crashes mid-write never leaves a torn chunk behind: readers observe
// either the whole old payload or the whole new one.
func (f *FileBackend) Put(id proto.ChunkID, data []byte) error {
	start := time.Now()
	defer func() {
		f.writeLat.Observe(time.Since(start))
		f.writeBytes.Add(int64(len(data)))
	}()
	tmp, err := os.CreateTemp(f.dir, fmt.Sprintf("chunk-%016x.tmp-*", uint64(id)))
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), f.path(id)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Get implements benefactor.Backend. With an arena attached the result is
// a pooled lease (returned later via Recycle); without one it is a plain
// per-call allocation.
func (f *FileBackend) Get(id proto.ChunkID) ([]byte, error) {
	start := time.Now()
	d, err := f.readChunk(id)
	f.readLat.Observe(time.Since(start))
	if os.IsNotExist(err) {
		return nil, proto.ErrNoSuchChunk
	}
	f.readBytes.Add(int64(len(d)))
	return d, err
}

func (f *FileBackend) readChunk(id proto.ChunkID) ([]byte, error) {
	if f.arena == nil {
		return os.ReadFile(f.path(id))
	}
	fh, err := os.Open(f.path(id))
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	st, err := fh.Stat()
	if err != nil {
		return nil, err
	}
	buf := f.arena.Get(int(st.Size()))
	if _, err := io.ReadFull(fh, buf); err != nil {
		f.arena.Put(buf)
		return nil, err
	}
	return buf, nil
}

// Delete implements benefactor.Backend.
func (f *FileBackend) Delete(id proto.ChunkID) error {
	err := os.Remove(f.path(id))
	if os.IsNotExist(err) {
		return proto.ErrNoSuchChunk
	}
	return err
}

// Has implements benefactor.Backend.
func (f *FileBackend) Has(id proto.ChunkID) bool {
	_, err := os.Stat(f.path(id))
	return err == nil
}
