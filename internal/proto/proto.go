// Package proto defines the wire-level types shared by the aggregate NVM
// store's manager, benefactors, and clients. The same types serve both the
// simulated transport (internal/simstore) and the real TCP transport
// (internal/rpc, cmd/nvmstore).
package proto

import (
	"fmt"
	"strings"
)

// ChunkID is a store-wide unique chunk handle assigned by the manager.
type ChunkID uint64

// ChunkRef locates one chunk: which benefactor holds it and its ID there.
type ChunkRef struct {
	Benefactor int
	ID         ChunkID
}

func (r ChunkRef) String() string { return fmt.Sprintf("b%d/c%d", r.Benefactor, r.ID) }

// FileInfo describes a logical file striped across the store.
type FileInfo struct {
	Name   string
	Size   int64
	Chunks []ChunkRef
	// Replicas lists every copy of each chunk, primary first, so
	// Replicas[i][0] == Chunks[i]. Clients use the extra refs for read
	// failover and replicated writes. Nil when the store runs unreplicated
	// (Replication == 1) metadata from an older manager.
	Replicas [][]ChunkRef
}

// BenefactorInfo is the manager's view of one space contributor.
type BenefactorInfo struct {
	ID       int
	Node     int   // cluster node hosting the benefactor
	Capacity int64 // bytes contributed
	Used     int64 // bytes reserved by the manager
	Alive    bool
	// WriteVolume is the cumulative bytes written to the benefactor's
	// device, used by the wear-aware placement policy.
	WriteVolume int64
	// Addr is the benefactor's transport address (TCP deployments only;
	// clients connect to it directly for chunk data, §III-D).
	Addr string
	// DebugAddr is the benefactor's observability endpoint
	// (/metrics, /healthz, /spans, pprof); empty when the daemon runs
	// without -debug-addr.
	DebugAddr string
	// BeatAgeNanos is how long ago the manager last heard this
	// benefactor's heartbeat, at the moment the Status response was built.
	BeatAgeNanos int64
}

// Errors shared across transports. They are sentinel values so both the
// simulated and the TCP paths report identical failures.
var (
	ErrNoSuchFile      = fmt.Errorf("nvm store: no such file")
	ErrFileExists      = fmt.Errorf("nvm store: file exists")
	ErrNoSpace         = fmt.Errorf("nvm store: insufficient space")
	ErrNoSuchChunk     = fmt.Errorf("nvm store: no such chunk")
	ErrBenefactorDead  = fmt.Errorf("nvm store: benefactor unavailable")
	ErrNoBenefactors   = fmt.Errorf("nvm store: no registered benefactors")
	ErrChunkOutOfRange = fmt.Errorf("nvm store: chunk index out of range")
	// ErrStaleShardMap rejects a request carrying an out-of-date shard-map
	// epoch, or a name-routed request that landed on the wrong shard. The
	// response piggybacks the fresh map (ShardEpoch/ShardIndex/ShardCount/
	// ShardPeers) so the client installs it and retries once.
	ErrStaleShardMap = fmt.Errorf("nvm store: stale shard map")
)

// ErrString is err's wire form: responses carry errors as strings, "" for
// none.
func ErrString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// WireErr maps a response error string back to a sentinel where possible.
func WireErr(s string) error {
	if s == "" {
		return nil
	}
	for _, sentinel := range []error{
		ErrNoSuchFile, ErrFileExists, ErrNoSpace,
		ErrNoSuchChunk, ErrBenefactorDead, ErrNoBenefactors,
		ErrChunkOutOfRange, ErrStaleShardMap,
	} {
		if s == sentinel.Error() {
			return sentinel
		}
		// Servers wrap sentinels with context ("%w: detail"); keep the
		// detail but restore the sentinel for errors.Is across the wire.
		if rest, ok := strings.CutPrefix(s, sentinel.Error()+":"); ok {
			return fmt.Errorf("%w:%s", sentinel, rest)
		}
	}
	return fmt.Errorf("%s", s)
}

// Request/response messages for the TCP transport. Every request carries an
// Op discriminant; responses carry Err as a string because error values do
// not cross the wire. Manager messages travel as gob envelopes; chunk
// messages are in-process structs whose wire form is an NVM1 frame
// (frame.go).

// Op enumerates the store RPCs.
type Op string

// Manager ops.
const (
	OpRegister Op = "register"
	OpCreate   Op = "create"
	OpLookup   Op = "lookup"
	OpDelete   Op = "delete"
	OpRemap    Op = "remap"
	OpSetTTL   Op = "setttl"
	OpExpire   Op = "expire"
	OpBeat     Op = "heartbeat"
	OpStatus   Op = "status"
	// OpRepair re-replicates under-replicated chunks onto live benefactors
	// and reports chunks with no surviving copy.
	OpRepair Op = "repair"
	// OpMarkDead forcibly declares a benefactor dead (fault injection and
	// operator intervention ahead of heartbeat expiry).
	OpMarkDead Op = "markdead"
	// OpReportSpans ships a batch of completed client-side spans to the
	// manager's span ring, so traces rooted in short-lived client
	// processes survive for the nvmctl collector to scrape.
	OpReportSpans Op = "spans"
	// The link protocol behind every Link and Derive, at every shard
	// count (client-orchestrated; manager shards never talk to each
	// other). OpExportRange reads a chunk sub-range of a file (refs +
	// replica sets + byte size) from the shard owning the file;
	// OpRetainRefs bumps refcounts at a chunk's owning shard on behalf of
	// a remote file reference; OpLinkRefs appends an explicit ref list
	// (possibly foreign-owned) to — or creates — a file on the destination
	// shard; OpReleaseRefs drops remote holds, physically deleting chunks
	// whose refcount reaches zero.
	OpExportRange Op = "exportrange"
	OpRetainRefs  Op = "retainrefs"
	OpLinkRefs    Op = "linkrefs"
	OpReleaseRefs Op = "releaserefs"
)

// Benefactor ops.
const (
	OpGetChunk    Op = "get"
	OpPutChunk    Op = "put"
	OpPutPages    Op = "putpages"
	OpDeleteChunk Op = "delchunk"
	OpCopyChunk   Op = "copychunk"
)

// Span is the wire form of one completed trace span (obs.Span, which
// mirrors this layout field for field). Carried by OpReportSpans so
// client-side spans outlive the client process. Detail is set only on
// events, which never leave their node; gob ignores a field one side
// lacks, so peers without it interoperate.
type Span struct {
	Trace      string
	ID         string
	Parent     string
	Name       string
	Node       string
	Var        string
	Err        string
	Detail     string
	StartNanos int64
	DurNanos   int64
	Bytes      int64
}

// ManagerReq is the manager-side request envelope.
type ManagerReq struct {
	Op Op
	// TraceID names the span tree of the client-side operation that issued
	// the request, so the manager's spans and events join the client's and
	// the benefactors' trace. Empty from untraced requests and older
	// clients (gob leaves missing fields zero, so the extension is
	// backward-compatible both ways).
	TraceID string
	// ParentSpanID is the client-side span the manager should parent its
	// own span under. Empty from older (or untraced) clients; the
	// manager then records no span for the request.
	ParentSpanID string
	// Spans is the OpReportSpans payload: completed client-side spans for
	// the manager to retain on the clients' behalf.
	Spans []Span
	// Register
	BenID        int
	BenNode      int
	BenAddr      string // TCP transport only
	BenDebugAddr string // benefactor observability endpoint, may be empty
	Capacity     int64
	// Create/Lookup/Delete/Remap/SetTTL/ExportRange/LinkRefs
	Name     string
	Size     int64
	ChunkIdx int // Remap
	// ExportRange
	FromChunk int
	NChunks   int
	// SetTTL: lifetime in nanoseconds from the manager's clock when it
	// applies the request (relative, because clients do not share the
	// manager's epoch). Zero or negative clears the file's lifetime.
	TTLNanos int64
	// Heartbeat
	WriteVolume int64
	// MapEpoch is the shard-map epoch the client believes this shard is
	// at. A mismatch is rejected with ErrStaleShardMap and the fresh map
	// piggybacked on the response. Zero is unstamped — first contact,
	// benefactor and admin traffic — and is never epoch-fenced.
	MapEpoch int64
	// IDs carries the chunk IDs of OpRetainRefs/OpReleaseRefs.
	IDs []ChunkID
	// Refs and RefReplicas carry the explicit chunk list of OpLinkRefs
	// (refs to append to Name, with each ref's full copy set, primary
	// first) as produced by OpExportRange on the source shard.
	Refs        []ChunkRef
	RefReplicas [][]ChunkRef
	// CreateDst makes OpLinkRefs create Name instead of appending to an
	// existing file (Derive).
	CreateDst bool
}

// ManagerResp is the manager-side response envelope.
type ManagerResp struct {
	Err    string
	File   FileInfo
	OldRef ChunkRef // Remap: the chunk the caller may copy from
	// NewRefs is the full replica set of the remapped chunk, primary first.
	NewRefs   []ChunkRef
	Bens      []BenefactorInfo
	ChunkSize int64    // Status: the store's striping unit
	Expired   []string // Expire: reclaimed file names
	// Status: chunks currently short of the configured replica count.
	UnderReplicated int
	// Repair results.
	Repaired     int       // replica copies restored
	RepairFailed int       // copy operations that failed (still under-replicated)
	Lost         []ChunkID // chunks with no live copy at all
	// DebugAddr is the manager's own observability endpoint (Status);
	// empty when the daemon runs without -debug-addr.
	DebugAddr string
	// Shard-map piggyback: every response from a sharded manager carries
	// its membership epoch, its own shard index, the shard count, and the
	// peer address list, so a client rejected with ErrStaleShardMap (or
	// simply observing a newer epoch) installs the fresh map without an
	// extra round trip. All zero from a pre-shard manager.
	ShardEpoch int64
	ShardIndex int
	ShardCount int
	ShardPeers []string
	// FenceChunks (Register response) lists the chunk copies this shard
	// dropped from the rejoining benefactor's pre-partition claims. The
	// benefactor must delete them locally before serving reads, so a
	// client with a stale chunk map can never read written-around data.
	FenceChunks []ChunkRef
	// ForeignFreed (Delete/Remap/Expire responses) lists references to
	// chunks owned by OTHER shards that this op released; the client
	// forwards them to the owning shards via OpReleaseRefs.
	ForeignFreed []ChunkRef
}

// ChunkReq is one chunk data op as the benefactor's dispatch sees it; an
// NVM1 frame carries it on the wire.
type ChunkReq struct {
	Op Op
	// TraceID tags the request with the client-side operation that issued
	// it (see ManagerReq.TraceID).
	TraceID string
	// ParentSpanID is the client-side span the benefactor should parent
	// its own span under (see ManagerReq.ParentSpanID). Empty from
	// untraced clients.
	ParentSpanID string
	// VarName is the NVM variable (store file) the chunk belongs to, so
	// server-side spans can attribute device traffic per variable.
	VarName string
	ID      ChunkID
	SrcID   ChunkID // CopyChunk
	// DeleteChunk: further chunks deleted after ID in the same op.
	MoreIDs []ChunkID
	Data    []byte
	// PutPages: parallel slices of page offsets within the chunk and page
	// payloads.
	PageOffs []int64
	PageData [][]byte
}

// ChunkResp is the result of one chunk data op.
type ChunkResp struct {
	Err  string
	Data []byte
}
