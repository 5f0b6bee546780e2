package fusecache

import "nvmalloc/internal/store"

// PageCache is the per-process page-granularity layer standing in for the
// kernel page cache above the FUSE mount: memory-mapped accesses hit here
// first; read misses become page-sized requests to the node's ChunkCache,
// and writes are pushed through to the FUSE layer a whole page at a time —
// the paper's model ("the OS page cache sends out write requests to the
// FUSE layer on a page granularity; after this, we mark the page as dirty
// within the FUSE cache", §III-D). Write-through also keeps ranks sharing
// a node-level mapping coherent. Its byte counters are the "requests to
// FUSE" column of Table IV and the "data written to FUSE" row of
// Table VII.
//
// A PageCache belongs to a single rank and takes no lock: the rank's procs
// may share it only cooperatively, switching where the ChunkCache blocks.
// Page frames are recycled, and none is reachable from two faults across a
// blocking fill. Cross-rank safety lives in the shared ChunkCache.
type PageCache struct {
	cc  *ChunkCache
	cap int // capacity in pages

	entries map[pageKey]*page
	lru     page  // sentinel: lru.next is the most recently used page, lru.prev the victim
	free    *page // detached frames, linked through next

	s PageStats
}

type pageKey struct {
	file string
	idx  int64 // page index within the file
}

type page struct {
	key        pageKey
	data       []byte
	prev, next *page
	busy       int // writebacks reading data; a busy frame is not recycled
}

// PageStats counts the traffic of one PageCache.
type PageStats struct {
	Hits       int64
	Faults     int64 // page misses served by the FUSE layer
	Writebacks int64 // pages pushed through to the FUSE layer by writes
	// FaultBytes/WritebackBytes are the byte volumes of the above — the
	// page-granular requests that reach the FUSE layer.
	FaultBytes     int64
	WritebackBytes int64
}

// NewPageCache builds a page cache of capBytes in front of cc.
func NewPageCache(cc *ChunkCache, capBytes int64) *PageCache {
	n := int(capBytes / cc.cfg.PageSize)
	if n < 1 {
		n = 1
	}
	pc := &PageCache{cc: cc, cap: n, entries: make(map[pageKey]*page)}
	pc.lru.prev, pc.lru.next = &pc.lru, &pc.lru
	return pc
}

// Stats returns a snapshot of the counters.
func (pc *PageCache) Stats() PageStats { return pc.s }

// ResetStats zeroes the counters.
func (pc *PageCache) ResetStats() { pc.s = PageStats{} }

// Chunk returns the underlying per-node chunk cache.
func (pc *PageCache) Chunk() *ChunkCache { return pc.cc }

// pageSize returns the page granularity.
func (pc *PageCache) pageSize() int64 { return pc.cc.cfg.PageSize }

// fault loads one page from the FUSE layer. fill controls whether the
// page's current content is fetched — a write that covers the whole page
// can skip the read (the kernel does the same for full-page overwrites).
func (pc *PageCache) fault(ctx store.Ctx, key pageKey, fill bool) (*page, error) {
	// Evict before the blocking fill, then fill a detached frame: a free one
	// (normally the victim's), or a new one until the cache is full.
	for len(pc.entries) >= pc.cap {
		pc.evict(pc.lru.prev)
	}
	pg := pc.free
	if pg == nil {
		pg = &page{data: make([]byte, pc.pageSize())}
	} else {
		pc.free = pg.next
	}
	pg.key = key
	if fill {
		pc.s.Faults++
		pc.s.FaultBytes += pc.pageSize()
		if err := pc.cc.ReadRange(ctx, key.file, key.idx*pc.pageSize(), pg.data); err != nil {
			pc.recycle(pg)
			return nil, err
		}
	}
	// Re-check after the blocking read; keep the map authoritative.
	if cur, ok := pc.entries[key]; ok {
		pc.recycle(pg)
		return cur, nil
	}
	pc.entries[key] = pg
	pc.pushFront(pg)
	return pg, nil
}

// evict drops pg from the map and the LRU and recycles its frame. Pages
// are never dirty (writes are pushed through immediately).
func (pc *PageCache) evict(pg *page) {
	delete(pc.entries, pg.key)
	pg.prev.next, pg.next.prev = pg.next, pg.prev
	pc.recycle(pg)
}

// recycle frees a detached frame, unless a writeback still reads its data.
func (pc *PageCache) recycle(pg *page) {
	if pg.busy == 0 {
		pg.next = pc.free
		pc.free = pg
	}
}

// pushFront links a detached page in as the most recently used.
func (pc *PageCache) pushFront(pg *page) {
	pg.prev, pg.next = &pc.lru, pc.lru.next
	pg.prev.next, pg.next.prev = pg, pg
}

// touch moves a resident page to the front of the LRU.
func (pc *PageCache) touch(pg *page) {
	pg.prev.next, pg.next.prev = pg.next, pg.prev
	pc.pushFront(pg)
}

// writeback pushes one whole page to the FUSE layer. WriteRange may block
// before it copies pg.data, so the frame stays busy until it returns.
func (pc *PageCache) writeback(ctx store.Ctx, pg *page) error {
	pc.s.Writebacks++
	pc.s.WritebackBytes += pc.pageSize()
	pg.busy++
	err := pc.cc.WriteRange(ctx, pg.key.file, pg.key.idx*pc.pageSize(), pg.data)
	pg.busy--
	return err
}

// Read copies [off, off+len(buf)) of file into buf through the page cache.
func (pc *PageCache) Read(ctx store.Ctx, file string, off int64, buf []byte) error {
	ps := pc.pageSize()
	for len(buf) > 0 {
		key := pageKey{file, off / ps}
		poff := off % ps
		pg, ok := pc.entries[key]
		if ok {
			pc.s.Hits++
			pc.touch(pg)
		} else {
			var err error
			pg, err = pc.fault(ctx, key, true)
			if err != nil {
				return err
			}
		}
		n := copy(buf, pg.data[poff:])
		buf = buf[n:]
		off += int64(n)
	}
	return nil
}

// Write stores data into file at off: the page copy is updated and the
// whole page is pushed through to the FUSE layer immediately
// (write-through, matching the paper's §III-D write path).
func (pc *PageCache) Write(ctx store.Ctx, file string, off int64, data []byte) error {
	ps := pc.pageSize()
	for len(data) > 0 {
		key := pageKey{file, off / ps}
		poff := off % ps
		n := int(ps - poff)
		if n > len(data) {
			n = len(data)
		}
		pg, ok := pc.entries[key]
		if ok {
			pc.s.Hits++
			pc.touch(pg)
		} else {
			// Full-page overwrites skip the read-fill.
			fill := !(poff == 0 && int64(n) == ps)
			var err error
			pg, err = pc.fault(ctx, key, fill)
			if err != nil {
				return err
			}
		}
		copy(pg.data[poff:], data[:n])
		if err := pc.writeback(ctx, pg); err != nil {
			return err
		}
		data = data[n:]
		off += int64(n)
	}
	return nil
}

// Drop discards all pages of file.
func (pc *PageCache) Drop(file string) {
	for k, pg := range pc.entries {
		if k.file == file {
			pc.evict(pg)
		}
	}
}

// Resident returns how many pages of file are cached.
func (pc *PageCache) Resident(file string) int {
	n := 0
	for k := range pc.entries {
		if k.file == file {
			n++
		}
	}
	return n
}
