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
	n   int // resident pages

	files map[string]*pageFile // files with a resident page
	lru   page                 // sentinel: lru.next is the most recently used page, lru.prev the victim
	free  *page                // detached frames, linked through next
	nodes *radixNode           // freed index nodes, linked through next

	s PageStats
}

// pageFile indexes one file's resident pages by page index, so a call
// hashes the file name once, not once per page. The table leaves
// PageCache.files with its last page and is then marked gone: a call that
// blocked holding it looks the file up again, and nothing is installed
// into it.
type pageFile struct {
	name   string
	root   *radixNode
	height int // levels of nodes: the tree covers indexes [0, 64^height)
	n      int // resident pages
	gone   bool
}

const radixBits = 6

// radixNode is one level of a pageFile's radix tree over page indexes,
// 64 ways wide: interior levels fill kids, the bottom level pages. Nodes
// are made on first use and freed with their last entry, so the index
// costs memory per resident page, not per page of file; freed nodes are
// reused, so faults at capacity allocate none.
type radixNode struct {
	kids  [1 << radixBits]*radixNode
	pages [1 << radixBits]*page
	n     int        // non-nil entries
	next  *radixNode // PageCache.nodes link while free
}

// get returns the resident page idx, or nil.
func (pf *pageFile) get(idx int64) *page {
	u := uint64(idx) // the tree is over uint64, so any index has a slot
	if pf.root == nil || u>>(radixBits*pf.height) != 0 {
		return nil
	}
	nd := pf.root
	for s := radixBits * (pf.height - 1); s > 0 && nd != nil; s -= radixBits {
		nd = nd.kids[u>>s&(1<<radixBits-1)]
	}
	if nd == nil {
		return nil
	}
	return nd.pages[u&(1<<radixBits-1)]
}

// index adds pg to pf as page idx, which must not be resident.
func (pc *PageCache) index(pf *pageFile, idx int64, pg *page) {
	u := uint64(idx)
	if pf.root == nil {
		for pf.height = 1; u>>(radixBits*pf.height) != 0; pf.height++ {
		}
		pf.root = pc.newNode()
	}
	for u>>(radixBits*pf.height) != 0 { // grow: the old root becomes kid 0
		up := pc.newNode()
		up.kids[0], up.n = pf.root, 1
		pf.root, pf.height = up, pf.height+1
	}
	nd := pf.root
	for s := radixBits * (pf.height - 1); s > 0; s -= radixBits {
		kid := &nd.kids[u>>s&(1<<radixBits-1)]
		if *kid == nil {
			*kid = pc.newNode()
			nd.n++
		}
		nd = *kid
	}
	nd.pages[u&(1<<radixBits-1)] = pg
	nd.n++
	pf.n++
}

// unindex removes the resident page idx from pf and frees the nodes it
// empties.
func (pc *PageCache) unindex(pf *pageFile, idx int64) {
	u := uint64(idx)
	var path [64 / radixBits]*radixNode
	nd, h := pf.root, 0
	for s := radixBits * (pf.height - 1); s > 0; s -= radixBits {
		path[h], h = nd, h+1
		nd = nd.kids[u>>s&(1<<radixBits-1)]
	}
	nd.pages[u&(1<<radixBits-1)] = nil
	for nd.n--; nd.n == 0; nd.n-- {
		nd.next, pc.nodes = pc.nodes, nd
		if h == 0 {
			pf.root, pf.height = nil, 0
			break
		}
		h--
		nd = path[h]
		nd.kids[u>>(radixBits*(pf.height-1-h))&(1<<radixBits-1)] = nil
	}
	pf.n--
}

// newNode returns an empty index node, reusing a freed one.
func (pc *PageCache) newNode() *radixNode {
	nd := pc.nodes
	if nd == nil {
		return new(radixNode)
	}
	pc.nodes, nd.next = nd.next, nil
	return nd
}

// each calls fn on every page under nd, a node h levels above the pages.
func (nd *radixNode) each(h int, fn func(*page)) {
	for i := range nd.pages {
		if h == 1 && nd.pages[i] != nil {
			fn(nd.pages[i])
		} else if h > 1 && nd.kids[i] != nil {
			nd.kids[i].each(h-1, fn)
		}
	}
}

type page struct {
	file       *pageFile
	idx        int64 // page index within the file
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
	pc := &PageCache{cc: cc, cap: n, files: make(map[string]*pageFile)}
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
func (pc *PageCache) fault(ctx store.Ctx, file string, idx int64, fill bool) (*page, error) {
	// Evict before the blocking fill, then fill a detached frame: a free one
	// (normally the victim's), or a new one until the cache is full.
	for pc.n >= pc.cap {
		pc.evict(pc.lru.prev)
	}
	pg := pc.free
	if pg == nil {
		pg = &page{data: make([]byte, pc.pageSize())}
	} else {
		pc.free = pg.next
	}
	if fill {
		pc.s.Faults++
		pc.s.FaultBytes += pc.pageSize()
		if err := pc.cc.ReadRange(ctx, file, idx*pc.pageSize(), pg.data); err != nil {
			pc.recycle(pg)
			return nil, err
		}
	}
	// Look the file up after the blocking read: a Drop or the eviction of
	// its last page may have retired the table the caller held.
	pf := pc.files[file]
	if pf == nil {
		pf = &pageFile{name: file}
		pc.files[file] = pf
	} else if cur := pf.get(idx); cur != nil {
		pc.recycle(pg)
		return cur, nil
	}
	pg.file, pg.idx = pf, idx
	pc.index(pf, idx, pg)
	pc.n++
	pc.pushFront(pg)
	return pg, nil
}

// evict drops pg from its file's table and the LRU and recycles its frame.
// Pages are never dirty (writes are pushed through immediately).
func (pc *PageCache) evict(pg *page) {
	pf := pg.file
	pc.unindex(pf, pg.idx)
	if pf.n == 0 {
		delete(pc.files, pf.name)
		pf.gone = true
	}
	pc.n--
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
	err := pc.cc.WriteRange(ctx, pg.file.name, pg.idx*pc.pageSize(), pg.data)
	pg.busy--
	return err
}

// lookup returns the resident page idx of file, or nil. pf is the caller's
// table for file from its previous page (nil at first), refreshed here if
// it was retired while the caller blocked.
func (pc *PageCache) lookup(pf **pageFile, file string, idx int64) *page {
	if *pf == nil || (*pf).gone {
		if *pf = pc.files[file]; *pf == nil {
			return nil
		}
	}
	return (*pf).get(idx)
}

// Read copies [off, off+len(buf)) of file into buf through the page cache.
func (pc *PageCache) Read(ctx store.Ctx, file string, off int64, buf []byte) error {
	ps := pc.pageSize()
	var pf *pageFile
	for len(buf) > 0 {
		poff := off % ps
		pg := pc.lookup(&pf, file, off/ps)
		if pg != nil {
			pc.s.Hits++
			pc.touch(pg)
		} else {
			var err error
			pg, err = pc.fault(ctx, file, off/ps, true)
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
	var pf *pageFile
	for len(data) > 0 {
		poff := off % ps
		n := int(ps - poff)
		if n > len(data) {
			n = len(data)
		}
		pg := pc.lookup(&pf, file, off/ps)
		if pg != nil {
			pc.s.Hits++
			pc.touch(pg)
		} else {
			// Full-page overwrites skip the read-fill.
			fill := !(poff == 0 && int64(n) == ps)
			var err error
			pg, err = pc.fault(ctx, file, off/ps, fill)
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
	if pf := pc.files[file]; pf != nil {
		pf.root.each(pf.height, pc.evict)
	}
}

// Resident returns how many pages of file are cached.
func (pc *PageCache) Resident(file string) int {
	if pf := pc.files[file]; pf != nil {
		return pf.n
	}
	return 0
}
