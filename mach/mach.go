// Package mach is the public API of the Mach reproduction: a user-level
// simulation of the multiprocessor operating system described in "The
// Duality of Memory and Communication in the Implementation of a
// Multiprocessor Operating System" (Young et al., SOSP 1987).
//
// The five Mach abstractions are all here:
//
//   - Task and Thread (execution control, §3.1) — create with
//     Kernel.NewTask, Task.Fork, Task.SpawnThread.
//   - Port and Message (IPC, §3.2) — every task has a port name Space;
//     msg_send / msg_receive / msg_rpc are Task.Send / Task.Receive /
//     Task.RPC; Tables 3-1 and 3-2 map to the Space methods. A server
//     bootstraps a client with Space.CopySendRight. Name spaces are
//     sharded and delivery is per-port, so IPC throughput scales with
//     concurrent senders.
//   - Memory object (external memory management, §3.4) — data managers
//     are built on Manager/Handler (Table 3-5 arrives as Handler calls;
//     Table 3-6 goes out through MemoryObject methods), and applications
//     map objects with Task.VMAllocateWithPager (Table 3-4).
//
// One Kernel simulates one host. Kernels constructed over a shared
// Topology form a multiprocessor complex (UMA, NUMA or NORMA, §7);
// message and memory costs are charged to a virtual Clock so experiments
// are deterministic.
//
// The package also re-exports the paper's application suite: the minimal
// filesystem (§4.1), consistent network shared memory (§4.2), UNIX
// emulation paths (§8.1), copy-on-reference migration (§8.2), and the
// Camelot-style recoverable virtual memory manager (§8.3).
//
// Quick start:
//
//	k := mach.NewKernel(mach.Config{})
//	defer k.Shutdown()
//	task := k.NewTask()
//	addr, _ := task.VMAllocate(0, 1<<20, true)   // vm_allocate
//	_ = task.VMWrite(addr, []byte("hello"))
//	child, _ := task.Fork()                      // copy-on-write
package mach

import (
	"time"

	"repro/internal/camelot"
	"repro/internal/fs"
	"repro/internal/iomgr"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/lifecycle"
	"repro/internal/machine"
	"repro/internal/migrate"
	"repro/internal/netmem"
	"repro/internal/netmsg"
	"repro/internal/obs"
	"repro/internal/pager"
	"repro/internal/rpc"
	"repro/internal/unixemu"
	"repro/internal/vm"
)

// --- kernel, tasks, threads -------------------------------------------------

// Kernel is one simulated Mach kernel (one host).
type Kernel = kern.Kernel

// Config sizes a kernel; the zero value gives 1024 frames of 4 KiB on a
// private UMA host.
type Config = kern.Config

// Task is the basic unit of resource allocation (§3.1).
type Task = kern.Task

// Thread is the basic unit of computation (§3.1).
type Thread = kern.Thread

// NewKernel boots a kernel (VM system, object cache, default pager).
func NewKernel(cfg Config) *Kernel { return kern.NewKernel(cfg) }

// --- machine substrate --------------------------------------------------------

// Clock is the deterministic virtual clock experiments read.
type Clock = machine.Clock

// Topology is the interconnect between hosts of one complex.
type Topology = machine.Topology

// Disk is a simulated block device with an operation counter.
type Disk = machine.Disk

// HostID identifies a host on a topology.
type HostID = machine.HostID

// Arch selects a multiprocessor class (§7).
type Arch = machine.Arch

// CostModel carries the latency parameters of a multiprocessor class.
type CostModel = machine.CostModel

// Multiprocessor classes (§7).
const (
	UMA   = machine.UMA
	NUMA  = machine.NUMA
	NORMA = machine.NORMA
)

// NewClock returns a virtual clock at zero.
func NewClock() *Clock { return machine.NewClock() }

// NewTopology builds an interconnect with the given cost model.
func NewTopology(model CostModel, clock *Clock) *Topology {
	return machine.NewTopology(model, clock)
}

// ModelFor returns the paper-calibrated cost model for an architecture.
func ModelFor(a Arch) CostModel { return machine.ModelFor(a) }

// NewDisk creates a simulated disk charging latency to clock.
func NewDisk(blocks, blockSize int, latency DiskLatency, clock *Clock) *Disk {
	return machine.NewDisk(blocks, blockSize, latency, clock)
}

// DiskLatency is the per-operation cost of a Disk.
type DiskLatency = time.Duration

// DefaultDiskLatency approximates a late-1980s disk access.
const DefaultDiskLatency = machine.DefaultDiskLatency

// Complex boots n kernels sharing one clock, one interconnect of the
// given architecture, and one netmsg network — the shape every
// multi-host experiment uses. Services checked in on any host resolve
// from every host (see NetMsgCheckIn / NetMsgLookUp).
func Complex(n int, arch Arch, framesPerHost, pageSize int) ([]*Kernel, *Topology, *Clock) {
	clock := machine.NewClock()
	topo := machine.NewTopology(machine.ModelFor(arch), clock)
	nmNet := netmsg.NewNetwork()
	kernels := make([]*Kernel, n)
	for i := range kernels {
		kernels[i] = kern.NewKernel(kern.Config{
			Host:     machine.HostID(i),
			Frames:   framesPerHost,
			PageSize: pageSize,
			Clock:    clock,
			Topo:     topo,
			NetMsg:   nmNet,
		})
	}
	return kernels, topo, clock
}

// --- IPC ---------------------------------------------------------------------

// Port name, rights, messages (§3.2, Tables 3-1 and 3-2).
type (
	// Name is a task-local port name.
	Name = ipc.Name
	// Message is a Mach message: header plus typed sections.
	Message = ipc.Message
	// Section is one typed item of a message body.
	Section = ipc.Section
	// MsgID tags message kinds.
	MsgID = ipc.MsgID
	// Space is a task's port name space.
	Space = ipc.Space
	// SendOptions / ReceiveOptions control msg_send / msg_receive.
	SendOptions    = ipc.SendOptions
	ReceiveOptions = ipc.ReceiveOptions
)

// Rights.
const (
	SendRight    = ipc.SendRight
	ReceiveRight = ipc.ReceiveRight
)

// Message body constructors.
var (
	// InlineBytes builds an inline data section (copied eagerly).
	InlineBytes = ipc.InlineBytes
	// CarryRight builds a section transferring a port right.
	CarryRight = ipc.CarryRight
	// CarryRegion builds an out-of-line section (moved copy-on-write).
	CarryRegion = ipc.CarryRegion
	// GetMessage returns a pooled empty message — the allocation-free
	// send path. Build it with AppendInline/AppendSection/InlineCopy;
	// the final owner (normally the receiver) recycles it with
	// Message.Release.
	GetMessage = ipc.GetMessage
	// AllocSlab draws a pooled byte buffer from a power-of-two size
	// class for out-of-line payload staging; release it with
	// Slab.Release when no message references it anymore.
	AllocSlab = ipc.AllocSlab
)

// Slab is a pooled out-of-line payload buffer (see AllocSlab).
type Slab = ipc.Slab

// --- port sets ---------------------------------------------------------------

// Port sets multiplex many receive rights through one receive point,
// the shape of the paper's servers (§4-§5): Space.AllocatePortSet
// creates a set, Space.MoveToPortSet / Space.RemoveFromPortSet manage
// membership, and Task.Receive / Space.Receive on the set's name drains
// the members with fair round-robin rotation. Members keep their own
// queues and backlogs (per-port backpressure is untouched); a member's
// messages arrive ONLY through the set (direct receives answer
// ErrInSet), so a message is never delivered twice. A set is the only
// way to receive from more than one port. A Loop is a set whose members
// each carry a handler: its receivers dispatch every message by the port
// it arrived on and release it afterwards. Every RPCServer and pager
// manager serves its ports through one; several services share a
// receive point by serving their ports in one Loop.

// NewLoop allocates a Loop on a space.
var NewLoop = ipc.NewLoop

// Port-set errors.
var (
	// ErrInSet: direct receive from a port-set member.
	ErrInSet = ipc.ErrInSet
	// ErrNotSet: a port-set operation named an ordinary port.
	ErrNotSet = ipc.ErrNotSet
	// ErrNotInSet: removing a port from a set it is not in.
	ErrNotInSet = ipc.ErrNotInSet
)

// --- port lifecycle -----------------------------------------------------------

// The port-lifecycle subsystem: the kernel counts every extant send
// right (space-held, in transit inside messages, kernel references), a
// receiver arms Space.RequestNoSenders to learn when its last client is
// gone, and dead ports leave dead names behind (ErrDeadName) instead of
// freeing names that could alias fresh ports. The LifecycleWatcher is
// the consumer layer: it drains a space's notifications and runs
// per-name callbacks with the make-send staleness check applied.
type LifecycleWatcher = lifecycle.Watcher

// NewLifecycleWatcher builds a watcher over a space's notifications;
// w.ServeOn(loop) makes it the handler of the space's notify port.
var NewLifecycleWatcher = lifecycle.New

// ErrDeadName: the name refers to a port whose receive right was
// destroyed; the name stays reserved until deallocated.
var ErrDeadName = ipc.ErrDeadName

// Kernel notification message IDs delivered on a space's notify port.
const (
	// MsgIDPortDeleted: a port this space held send rights to died.
	MsgIDPortDeleted = ipc.MsgIDPortDeleted
	// MsgIDNoSenders: a port this space requested notification for has
	// no extant send rights left.
	MsgIDNoSenders = ipc.MsgIDNoSenders
	// MsgIDDeadName: a send right this space armed with
	// Space.RequestDeadName went dead. Confirm with
	// Space.ConfirmDeadName (or register through
	// LifecycleWatcher.OnDeadName, which confirms for you) — the
	// notification carries the name entry's generation as its staleness
	// guard.
	MsgIDDeadName = ipc.MsgIDDeadName
)

// NotifyQueueCap bounds a space's notify-port queue; overflow is
// dropped and counted by Space.DeadLetters.
const NotifyQueueCap = ipc.NotifyQueueCap

// --- typed RPC layer ---------------------------------------------------------

// The MIG analogue: one typed interface layer every server and client
// speak over ports. Define message IDs, register RPCHandler funcs on an
// RPCServer, and call through an RPCClient with Enc-built payloads; the
// codec, status space and demux replace per-server wire formats.
type (
	// RPCServer demuxes a service port to registered handlers.
	RPCServer = rpc.Server
	// RPCClient issues typed calls against a service port.
	RPCClient = rpc.Client
	// RPCHandler serves one request.
	RPCHandler = rpc.HandlerFunc
	// RPCReply is a reply under construction.
	RPCReply = rpc.Reply
	// RPCStatus is the canonical status/errno space.
	RPCStatus = rpc.Status
	// RPCBatch coalesces many calls into one pipelined message
	// (Client.NewBatch / Batch.Add / Batch.Commit).
	RPCBatch = rpc.Batch
	// RPCBatchCall is one pending call inside a batch.
	RPCBatchCall = rpc.BatchCall
	// Enc / Dec are the typed payload cursor codecs.
	Enc = rpc.Enc
	Dec = rpc.Dec
)

// Canonical RPC status values (the rpc.Status space).
const (
	StatusOK        = rpc.StatusOK
	StatusNotFound  = rpc.StatusNotFound
	StatusExists    = rpc.StatusExists
	StatusFull      = rpc.StatusFull
	StatusTooLarge  = rpc.StatusTooLarge
	StatusDead      = rpc.StatusDead
	StatusBadArgs   = rpc.StatusBadArgs
	StatusBadID     = rpc.StatusBadID
	StatusServerErr = rpc.StatusServerErr
)

// NewRPCServer allocates a service port on space, in the server's own
// Loop, and returns its demux. srv.Run serves it on one receiver,
// srv.Loop.Run(n) on n.
var NewRPCServer = rpc.NewServer

// NewRPCClient builds a typed client for a published service port.
func NewRPCClient(space *Space, svc Name, timeout time.Duration) *RPCClient {
	return rpc.NewClient(space, svc, timeout)
}

// Typed payload helpers.
var (
	// NewEnc starts an empty payload encoder.
	NewEnc = rpc.NewEnc
	// NewDec starts a length-checked decoder over a payload.
	NewDec = rpc.NewDec
	// NewRPCReply starts an empty reply.
	NewRPCReply = rpc.NewReply
	// PutU64 / U64 are the raw little-endian word accessors for code
	// treating task memory as an array of u64 words.
	PutU64 = rpc.PutU64
	U64    = rpc.U64
)

// --- cross-host IPC (network message server) ---------------------------------

// The netmsg layer makes IPC location-transparent across the hosts of a
// complex, in the style of Mach's netmsgserver: a send right looked up
// on another host arrives as a local proxy port whose traffic is
// forwarded home over the interconnect (with reply ports and embedded
// rights re-proxied recursively, and out-of-line regions riding the
// kernel's cross-host copy machinery). Every Kernel runs one
// NetMsgServer; kernels built by Complex share one NetMsgNetwork.
type (
	// NetMsgServer is one host's network message server.
	NetMsgServer = netmsg.Server
	// NetMsgNetwork connects the message servers of one complex.
	NetMsgNetwork = netmsg.Network
	// NetMsgStats is one server's proxy and registry counters — the
	// observable surface of the distributed proxy GC (see
	// NetMsgServer.Stats).
	NetMsgStats = netmsg.Stats
)

// NewNetMsgNetwork creates a message-server network for kernels built
// by hand (Complex does this automatically); pass it in Config.NetMsg.
func NewNetMsgNetwork() *NetMsgNetwork { return netmsg.NewNetwork() }

// ErrNetMsgNotFound: no service checked in under that name on any host.
var ErrNetMsgNotFound = netmsg.ErrNotFound

// NetMsgCheckIn registers the named right of task t (a send right to a
// service port) with t's host message server under name, making the
// service reachable by name from every host of the complex.
func NetMsgCheckIn(t *Task, name string, port Name) error {
	svc, err := t.Kernel().NetMsg().Publish(t.Space)
	if err != nil {
		return err
	}
	return netmsg.CheckIn(t.Space, svc, name, port)
}

// NetMsgLookUp resolves a service name through t's host message server
// and returns a send right installed in t's space: the real port for a
// local service, a forwarding proxy for a remote one. The right is
// usable with every port-based API, RPCClient and
// VMAllocateWithPager included.
func NetMsgLookUp(t *Task, name string) (Name, error) {
	svc, err := t.Kernel().NetMsg().Publish(t.Space)
	if err != nil {
		return 0, err
	}
	return netmsg.LookUp(t.Space, svc, name)
}

// --- virtual memory ------------------------------------------------------------

// Protection, inheritance and region description (Table 3-3).
type (
	// Prot is a protection value (read/write/execute bits).
	Prot = vm.Prot
	// Inherit controls fork-time inheritance of a region.
	Inherit = vm.Inherit
	// RegionInfo is one vm_regions entry.
	RegionInfo = vm.RegionInfo
	// VMStatistics is the vm_statistics result.
	VMStatistics = vm.Statistics
	// FaultPolicy is the memory-failure policy of §6.2.1.
	FaultPolicy = vm.FaultPolicy
)

// Protection bits and inheritance modes.
const (
	ProtNone    = vm.ProtNone
	ProtRead    = vm.ProtRead
	ProtWrite   = vm.ProtWrite
	ProtExecute = vm.ProtExecute
	ProtAll     = vm.ProtAll
	ProtDefault = vm.ProtDefault

	InheritCopy  = vm.InheritCopy
	InheritShare = vm.InheritShare
	InheritNone  = vm.InheritNone
)

// ErrMemoryFailure is returned by faults whose data manager failed
// (§6.2.1).
var ErrMemoryFailure = vm.ErrMemoryFailure

// --- external memory management -------------------------------------------------

// Data manager toolkit (§3.4): Manager runs a data manager task's service
// loop, Handler receives the Table 3-5 calls, MemoryObject sends the
// Table 3-6 calls.
type (
	Manager      = pager.Manager
	Handler      = pager.Handler
	MemoryObject = pager.MemoryObject
	NopHandler   = pager.NopHandler
	// DefaultPager is the trusted backing-store manager of §6.2.2.
	DefaultPager = pager.DefaultPager
)

// NewManager wraps a space and handler into a manager service loop.
func NewManager(space *Space, h Handler) *Manager { return pager.NewManager(space, h) }

// --- durable storage & the I/O manager ----------------------------------------

// The block I/O subsystem: an iomgr file performs a synchronous read,
// write or fsync (SyncReadAt / SyncWriteAt / SyncFsync) on the caller's
// goroutine, and an asynchronous one (ReadAt / WriteAt / Fsync) on one
// of a few worker goroutines, returning an op to Await. A FileVolume is
// a BlockStore over such a file, a FramePool is a frame-table buffer
// cache over any BlockStore, and a DefaultPager layered on either pages
// real files instead of the Go heap (Config.PagingStore /
// Config.PagingFrames boot a kernel that way).
type (
	// IOFile is a block-I/O file handle (see IOOpen).
	IOFile = iomgr.File
	// IOOp is one asynchronous operation; Await blocks for completion.
	IOOp = iomgr.Op
	// IOOptions: Create creates the file; Backend accepts only "" and
	// "pool".
	IOOptions = iomgr.Options
	// IOStats are a file's submission/completion counters.
	IOStats = iomgr.Stats
	// BlockStore is the device interface the pager stack pages against.
	BlockStore = pager.BlockStore
	// FileVolume is a BlockStore over a real file through the I/O
	// manager.
	FileVolume = pager.FileVolume
	// FramePool is a frame-table buffer cache over a BlockStore.
	FramePool = pager.FramePool
	// IOCounters aggregate real device and frame-pool traffic.
	IOCounters = pager.IOCounters
)

// IOOpen opens (or creates, with Options.Create) a file for block
// I/O.
var IOOpen = iomgr.Open

// OpenFileVolume opens a block volume backed by a real file.
var OpenFileVolume = pager.OpenFileVolume

// NewFramePool builds a buffer pool of nframes slab-backed frames.
var NewFramePool = pager.NewFramePool

// NewDefaultPagerStore builds a default pager over any BlockStore.
var NewDefaultPagerStore = pager.NewDefaultPagerStore

// --- observability -----------------------------------------------------------

// The kernel-wide observability surface: every subsystem records into
// one process-global metrics registry (counters, gauges, log₂ latency
// histograms — all lock-free, allocation-free on the hot path), and a
// sampled cross-host tracing facility stamps messages with trace IDs
// that survive RPC replies, batches and netmsg forwarding, so one
// logical operation yields one timeline across kernels.
type (
	// MetricsSnapshot is a point-in-time copy of every registered
	// metric; Diff two snapshots to get interval rates.
	MetricsSnapshot = obs.Snapshot
	// HistSnapshot is one histogram's buckets with quantile accessors
	// (P50 / P99 / P999 / Mean).
	HistSnapshot = obs.HistSnapshot
	// TraceEvent is one recorded hop of a traced message.
	TraceEvent = obs.Event
	// TraceHop discriminates hop kinds (send, enqueue, proxy-forward,
	// receive, reply).
	TraceHop = obs.Hop
)

// Metrics snapshots the process-global metrics registry: per-host IPC
// and RPC counters and latency histograms, netmsg proxy and per-peer
// traffic counters, pager fault/eviction counters, I/O manager and WAL
// activity. Render with MetricsSnapshot.Table, or Diff two snapshots
// for an interval view.
func Metrics() MetricsSnapshot { return obs.Default().Snapshot() }

// SetTraceSampling sets the trace sampling rate: every n-th Send mints
// a trace ID (0 disables, 1 traces everything). Returns the previous
// rate. Unsampled messages pay one atomic load and a branch.
var SetTraceSampling = obs.SetTraceSampling

// Trace returns the recorded hops of one trace ID across every host's
// flight recorder, in timestamp order.
var Trace = obs.Trace

// TraceDump returns every hop event still held by the flight
// recorders, in timestamp order.
var TraceDump = obs.TraceEvents

// FormatTrace renders a hop timeline human-readably, offsets relative
// to the first hop.
var FormatTrace = obs.FormatTrace

// ResetTrace clears every flight recorder (test isolation).
var ResetTrace = obs.ResetTrace

// --- application suite ------------------------------------------------------------

// Minimal filesystem (§4.1).
type FSServer = fs.Server

// NewFSServer creates the read-whole-file/write-whole-file server.
func NewFSServer(k *Kernel, disk *Disk) (*FSServer, error) { return fs.NewServer(k, disk) }

// FSReadFile / FSWriteFile / FSStat are the client calls of §4.1;
// FSOpen opens a per-client handle whose send right is the session —
// the server reaps it on no-senders when the client closes or dies.
var (
	FSReadFile   = fs.ReadFile
	FSWriteFile  = fs.WriteFile
	FSStat       = fs.Stat
	FSList       = fs.List
	FSMappedSize = fs.MappedSize
	FSOpen       = fs.Open
)

// FSHandle is a client-held open file (see FSOpen).
type FSHandle = fs.Handle

// Consistent network shared memory (§4.2).
type SharedMemoryServer = netmem.Server

// NewSharedMemoryServer creates the shared memory data manager.
func NewSharedMemoryServer(k *Kernel) (*SharedMemoryServer, error) { return netmem.NewServer(k) }

// SharedCreate / SharedAttach are the client calls. SharedAttachObject
// returns the attachment right without mapping; deallocating the last
// attachment right anywhere reaps the region (detach-on-death).
var (
	SharedCreate       = netmem.Create
	SharedAttach       = netmem.Attach
	SharedAttachObject = netmem.AttachObject
)

// Copy-on-reference task migration (§8.2).
type (
	MigrationOptions = migrate.Options
	Migration        = migrate.Migration
)

// Migrate moves a task's address space to another kernel
// copy-on-reference.
var Migrate = migrate.Migrate

// Camelot-style recoverable virtual memory (§8.3).
type (
	CamelotDiskManager = camelot.DiskManager
	CamelotClient      = camelot.Client
	CamelotSegment     = camelot.Segment
	CamelotTx          = camelot.Tx
)

// NewCamelotDiskManager creates the write-ahead-logging disk manager
// over simulated disks (instant durability, deterministic clock).
func NewCamelotDiskManager(k *Kernel, dataDisk, logDisk *Disk) (*CamelotDiskManager, error) {
	return camelot.NewDiskManager(k, dataDisk, logDisk)
}

// CamelotDurableOptions sizes a real-file disk manager.
type CamelotDurableOptions = camelot.DurableOptions

// CamelotWALStats counts log-device appends, forces and (group-
// committed) fsyncs.
type CamelotWALStats = camelot.WALStats

// NewDurableCamelotDiskManager creates a disk manager whose segments,
// write-ahead log and catalog live in real files under dir; reopening
// the directory after a crash recovers exactly the committed state.
func NewDurableCamelotDiskManager(k *Kernel, dir string, o CamelotDurableOptions) (*CamelotDiskManager, error) {
	return camelot.NewDurableDiskManager(k, dir, o)
}

// CamelotOpen connects a task to a disk manager service port.
var CamelotOpen = camelot.Open

// UNIX emulation I/O paths (§8.1).
type (
	UnixFileSystem = unixemu.FileSystem
	UnixFile       = unixemu.File
	BufferCacheFS  = unixemu.BufferCacheFS
	MappedFS       = unixemu.MappedFS
)

// NewBufferCacheFS builds the traditional buffer-cache baseline.
var NewBufferCacheFS = unixemu.NewBufferCacheFS

// NewMappedFS builds the Mach mapped-file path over an FS service port.
var NewMappedFS = unixemu.NewMappedFS
