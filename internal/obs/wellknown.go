package obs

import "fmt"

// Well-known metric bundles. Each instrumented subsystem resolves its
// bundle once (at Space/Server/pool construction — never on a message
// path) and records through the returned handles directly. The
// registry's get-or-create semantics make every resolution of the same
// name return the same underlying metric, so bundles are cheap to
// re-resolve and never need a second cache.
//
// Naming: dotted paths with a "hostN." prefix for per-kernel metrics.
// One process simulates a whole complex of kernels; the prefix keeps
// each kernel's numbers apart, which is what ROADMAP item 3 (scale-out
// measurement) needs.

// HostPrefix returns the metric-name prefix for one simulated kernel.
func HostPrefix(host int) string { return fmt.Sprintf("host%d.", host) }

// IPCMetrics is one kernel's IPC instrumentation. Spaces on the same
// host share a bundle — granularity is per host, not per space.
type IPCMetrics struct {
	// Sends counts messages entering Send/RawSend on this host.
	Sends *Counter
	// Receives counts messages delivered by Receive/RawReceive.
	Receives *Counter
	// Handoffs counts direct sender-to-receiver handoffs (the queue
	// was bypassed because a receiver was already parked).
	Handoffs *Counter
	// Stalls counts sends that found the destination backlog full and
	// had to wait (or bounce, when non-blocking).
	Stalls *Counter
	// DeadLetters counts kernel notifications dropped on the floor.
	DeadLetters *Counter
	// ReplyPool tracks idle pooled RPC reply ports across the host's
	// spaces.
	ReplyPool *Gauge
	// Latency is the sampled send-to-receive message latency in
	// nanoseconds. Only every latencySampleEvery-th message is timed:
	// two time.Now() calls would be ~20% of the fast path, far outside
	// the instrumentation budget, so the latency distribution is
	// sampled while the counters stay exact.
	Latency *Histogram
}

// LatencySampleEvery is the message-latency sampling period: one
// message in every LatencySampleEvery is timestamped at send and its
// queue latency recorded at receive. The sampling decision reuses the
// send-counter value the path already pays for, so unsampled messages
// spend zero extra atomics on it.
const LatencySampleEvery = 64

// IPCHost returns host's IPC bundle from the default registry.
func IPCHost(host int) *IPCMetrics {
	r := Default()
	p := HostPrefix(host) + "ipc."
	return &IPCMetrics{
		Sends:       r.Counter(p + "sends"),
		Receives:    r.Counter(p + "receives"),
		Handoffs:    r.Counter(p + "handoffs"),
		Stalls:      r.Counter(p + "queue_full_stalls"),
		DeadLetters: r.Counter(p + "dead_letters"),
		ReplyPool:   r.Gauge(p + "reply_pool"),
		Latency:     r.Histogram(p + "latency_ns"),
	}
}

// RPCMetrics is one kernel's RPC-server instrumentation.
type RPCMetrics struct {
	// BatchSizes is the distribution of calls per MsgBatch container.
	BatchSizes *Histogram
}

// RPCHost returns host's RPC bundle.
func RPCHost(host int) *RPCMetrics {
	r := Default()
	p := HostPrefix(host) + "rpc."
	return &RPCMetrics{
		BatchSizes: r.Histogram(p + "batch_size"),
	}
}

// RPCMethod is the per-MsgID instrumentation of one registered RPC
// handler, resolved at Handle registration time.
type RPCMethod struct {
	// Calls counts invocations of the handler.
	Calls *Counter
	// Latency is the handler service time in nanoseconds (every call
	// is timed: handler dispatch is not the sub-µs fast path).
	Latency *Histogram
}

// RPCMethodMetrics returns the bundle for one (host, MsgID) handler.
func RPCMethodMetrics(host int, msgID int32) *RPCMethod {
	r := Default()
	p := fmt.Sprintf("%srpc.msg%d.", HostPrefix(host), msgID)
	return &RPCMethod{
		Calls:   r.Counter(p + "calls"),
		Latency: r.Histogram(p + "latency_ns"),
	}
}

// NetmsgMetrics is one kernel's network-message-server instrumentation.
type NetmsgMetrics struct {
	// ProxiesCreated/Retired/Died count proxy port lifecycle events.
	ProxiesCreated *Counter
	ProxiesRetired *Counter
	ProxiesDied    *Counter
	// CacheHits counts remote lookups satisfied by the local proxy
	// cache instead of a control round-trip; NegCacheHits the misses
	// answered from the negative cache the same way.
	CacheHits    *Counter
	NegCacheHits *Counter
	// HomeLookups counts cold lookups resolved by asking the name's
	// consistent-hash home node — one control round trip each,
	// independent of host count.
	HomeLookups *Counter
	// InvalidationsSent/Recv count directory invalidation pushes (a
	// replaced or dead record, or a name appearing that peers hold
	// negative entries for).
	InvalidationsSent *Counter
	InvalidationsRecv *Counter
	// Proxies is the live proxy population; DirEntries the directory
	// records (home or replica) this host currently serves.
	Proxies    *Gauge
	DirEntries *Gauge
}

// NetmsgHost returns host's netmsg bundle.
func NetmsgHost(host int) *NetmsgMetrics {
	r := Default()
	p := HostPrefix(host) + "netmsg."
	return &NetmsgMetrics{
		ProxiesCreated:    r.Counter(p + "proxies_created"),
		ProxiesRetired:    r.Counter(p + "proxies_retired"),
		ProxiesDied:       r.Counter(p + "proxies_died"),
		CacheHits:         r.Counter(p + "lookup_cache_hits"),
		NegCacheHits:      r.Counter(p + "neg_cache_hits"),
		HomeLookups:       r.Counter(p + "lookups_home"),
		InvalidationsSent: r.Counter(p + "invalidations_sent"),
		InvalidationsRecv: r.Counter(p + "invalidations_recv"),
		Proxies:           r.Gauge(p + "proxies"),
		DirEntries:        r.Gauge(p + "dir_entries"),
	}
}

// NetmsgPeerMetrics counts one kernel's traffic toward one remote peer.
type NetmsgPeerMetrics struct {
	// Msgs/Bytes count forwarded user messages and their payload
	// bytes; ControlMsgs counts protocol traffic (lookups, transfers).
	Msgs        *Counter
	Bytes       *Counter
	ControlMsgs *Counter
}

// NetmsgPeer returns the (host -> peer) traffic bundle.
func NetmsgPeer(host, peer int) *NetmsgPeerMetrics {
	r := Default()
	p := fmt.Sprintf("%snetmsg.peer%d.", HostPrefix(host), peer)
	return &NetmsgPeerMetrics{
		Msgs:        r.Counter(p + "msgs"),
		Bytes:       r.Counter(p + "bytes"),
		ControlMsgs: r.Counter(p + "control_msgs"),
	}
}

// LoadGenMetrics instruments the open-loop load generator driving a
// simulated complex (machbench E12): arrivals are clocked, not gated
// on completions, so latency under overload is visible instead of
// hidden by coordinated omission.
type LoadGenMetrics struct {
	// Sessions counts client sessions started; Lookups and Calls the
	// name resolutions and service RPCs they issued; Errors any of
	// either that failed.
	Sessions *Counter
	Lookups  *Counter
	Calls    *Counter
	Errors   *Counter
	// LookupLatency and CallLatency are wall-clock nanoseconds per
	// LookUp and per service RPC.
	LookupLatency *Histogram
	CallLatency   *Histogram
}

// LoadGen returns the process-global load-generator bundle.
func LoadGen() *LoadGenMetrics {
	r := Default()
	return &LoadGenMetrics{
		Sessions:      r.Counter("loadgen.sessions"),
		Lookups:       r.Counter("loadgen.lookups"),
		Calls:         r.Counter("loadgen.calls"),
		Errors:        r.Counter("loadgen.errors"),
		LookupLatency: r.Histogram("loadgen.lookup_ns"),
		CallLatency:   r.Histogram("loadgen.rpc_ns"),
	}
}

// VMMetrics is the virtual-memory instrumentation, process-global like
// the pager's: the page-in path's copies and the frames it has on loan.
type VMMetrics struct {
	// FramesLent is the number of frames out on loan to data managers
	// in frame grants that are not yet installed or freed.
	FramesLent *Gauge
	// PageinBytesCopied counts the page bytes pager_data_provided
	// copied into frames. A page that arrives in a frame grant is
	// already in its frame and is not counted.
	PageinBytesCopied *Counter
}

// VM returns the global vm bundle.
func VM() *VMMetrics {
	r := Default()
	return &VMMetrics{
		FramesLent:        r.Gauge("vm.frames_lent"),
		PageinBytesCopied: r.Counter("vm.pagein_bytes_copied"),
	}
}

// PagerMetrics is the external-pager / frame-pool instrumentation,
// process-global (frame pools are per backing object, not per host).
type PagerMetrics struct {
	// ColdFaults are faults that went to the backing store; WarmFaults
	// were satisfied from resident frames.
	ColdFaults *Counter
	WarmFaults *Counter
	Evictions  *Counter
	Writebacks *Counter
}

// Pager returns the global pager bundle.
func Pager() *PagerMetrics {
	r := Default()
	return &PagerMetrics{
		ColdFaults: r.Counter("pager.faults_cold"),
		WarmFaults: r.Counter("pager.faults_warm"),
		Evictions:  r.Counter("pager.evictions"),
		Writebacks: r.Counter("pager.writebacks"),
	}
}

// IOMetrics is the I/O manager instrumentation, process-global.
type IOMetrics struct {
	Submitted    *Counter
	Completed    *Counter
	Errors       *Counter
	BytesRead    *Counter
	BytesWritten *Counter
	Fsyncs       *Counter
}

// IO returns the global iomgr bundle.
func IO() *IOMetrics {
	r := Default()
	return &IOMetrics{
		Submitted:    r.Counter("iomgr.submitted"),
		Completed:    r.Counter("iomgr.completed"),
		Errors:       r.Counter("iomgr.errors"),
		BytesRead:    r.Counter("iomgr.bytes_read"),
		BytesWritten: r.Counter("iomgr.bytes_written"),
		Fsyncs:       r.Counter("iomgr.fsyncs"),
	}
}

// WALMetrics is the recoverable-storage (camelot) WAL instrumentation.
type WALMetrics struct {
	// Appends counts records appended; Forces counts force (commit)
	// requests; Fsyncs counts device syncs actually issued — group
	// commit makes Fsyncs/Forces the batching ratio.
	Appends *Counter
	Forces  *Counter
	Fsyncs  *Counter
}

// WAL returns the global WAL bundle.
func WAL() *WALMetrics {
	r := Default()
	return &WALMetrics{
		Appends: r.Counter("camelot.wal_appends"),
		Forces:  r.Counter("camelot.wal_forces"),
		Fsyncs:  r.Counter("camelot.wal_fsyncs"),
	}
}
