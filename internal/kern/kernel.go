// Package kern is the Mach kernel façade of the reproduction: one Kernel
// per simulated host ties together the IPC space layer, the VM system,
// and the external memory interface, and exposes the paper's system call
// surface — task and thread creation (§3.1), the virtual memory
// operations of Table 3-3, vm_allocate_with_pager of Table 3-4, and
// out-of-line message transfer.
//
// At boot each kernel starts its trusted default pager task (§6.2.2),
// backed by a simulated paging disk, and registers it for the
// pager_create flow so anonymous memory can be evicted.
package kern

import (
	"sync"

	"repro/internal/ipc"
	"repro/internal/machine"
	"repro/internal/netmsg"
	"repro/internal/pager"
	"repro/internal/vm"
)

// Config sizes a simulated host.
type Config struct {
	// Host identifies this kernel on the interconnect.
	Host machine.HostID
	// Arch selects the cost model when Topo is nil.
	Arch machine.Arch
	// Frames and PageSize define physical memory. Defaults: 1024
	// frames of 4096 bytes.
	Frames   int
	PageSize int
	// Clock is the simulated clock; shared between kernels of one
	// machine complex. A new one is created if nil.
	Clock *machine.Clock
	// Topo is the interconnect; kernels sharing a Topology can
	// exchange messages. A private one is created if nil.
	Topo *machine.Topology
	// PagingDisk backs the default pager. A disk of 8x physical
	// memory is created if nil (and PagingStore is nil).
	PagingDisk *machine.Disk
	// PagingStore, when non-nil, backs the default pager instead of
	// PagingDisk: any pager.BlockStore — typically an iomgr-backed
	// pager.FileVolume so anonymous memory pages to a real file.
	PagingStore pager.BlockStore
	// PagingFrames, when > 0, interposes a pager.FramePool of that
	// many page frames between the default pager and its backing
	// store: faults hit resident frames without device I/O, dirty
	// pages write back on eviction under clock rotation.
	PagingFrames int
	// Fault is the memory-failure policy (§6.2.1).
	Fault vm.FaultPolicy
	// NoDefaultPager disables the default pager bootstrap (anonymous
	// memory then cannot be paged out). Used by failure-injection
	// tests.
	NoDefaultPager bool
	// NetMsg is the cross-host message-server network this kernel's
	// netmsg instance joins. Kernels sharing a Topology should share a
	// network for location-transparent IPC between their hosts
	// (mach.Complex wires this); a private network is created if nil.
	NetMsg *netmsg.Network
}

// Kernel is one simulated Mach kernel: "the kernel task acts as a server
// which in turn implements tasks and threads" (§3.2).
type Kernel struct {
	host  machine.HostID
	topo  *machine.Topology
	clock *machine.Clock

	// VM is the kernel's virtual memory system.
	VM *vm.System
	// Cache is the memory-object-port table (kernel side of the
	// external memory interface).
	Cache *pager.ObjectCache

	mu      sync.Mutex
	tasks   map[*Task]struct{}
	nextTID int

	dpMgr   *pager.Manager
	dp      *pager.DefaultPager
	dpSpace *ipc.Space

	// nm is the host's network message server (cross-host IPC proxies
	// and the name registry).
	nm *netmsg.Server

	// transit is the kernel map out-of-line data travels through.
	transit *vm.Map
}

// Default address space bounds for tasks (and the kernel transit map).
const (
	taskMapLo = 0x0000000000010000
	taskMapHi = 0x0000001000000000
)

// NewKernel boots a kernel: VM system, object cache, transit map and
// (unless disabled) the default pager task.
func NewKernel(cfg Config) *Kernel {
	if cfg.Frames <= 0 {
		cfg.Frames = 1024
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = 4096
	}
	if cfg.Clock == nil {
		cfg.Clock = machine.NewClock()
	}
	if cfg.Topo == nil {
		cfg.Topo = machine.NewTopology(machine.ModelFor(cfg.Arch), cfg.Clock)
	}
	k := &Kernel{
		host:  cfg.Host,
		topo:  cfg.Topo,
		clock: cfg.Clock,
		tasks: make(map[*Task]struct{}),
	}
	k.VM = vm.NewSystem(vm.Config{
		Frames:   cfg.Frames,
		PageSize: cfg.PageSize,
		Clock:    cfg.Clock,
		Model:    cfg.Topo.Model(),
		Fault:    cfg.Fault,
	})
	k.Cache = pager.NewObjectCache(k.VM, cfg.Host, cfg.Topo)
	k.transit = k.VM.NewMap(taskMapLo, taskMapHi)

	nmNet := cfg.NetMsg
	if nmNet == nil {
		nmNet = netmsg.NewNetwork()
	}
	nm, err := netmsg.NewServer(cfg.Host, cfg.Topo, nmNet)
	if err != nil {
		// Kernels sharing a NetMsg network must have distinct
		// Config.Host values (as Complex arranges).
		panic("kern: netmsg bootstrap (give each kernel on a shared NetMsg network a distinct Config.Host): " + err.Error())
	}
	k.nm = nm

	if !cfg.NoDefaultPager {
		store := cfg.PagingStore
		if store == nil {
			if cfg.PagingDisk != nil {
				store = cfg.PagingDisk
			} else {
				store = machine.NewDisk(cfg.Frames*8, cfg.PageSize, machine.DefaultDiskLatency, cfg.Clock)
			}
		}
		if cfg.PagingFrames > 0 {
			store = pager.NewFramePool(store, cfg.PagingFrames)
		}
		k.bootDefaultPager(store)
	}
	return k
}

// bootDefaultPager starts the trusted default pager as a manager task and
// wires the pager_create path.
func (k *Kernel) bootDefaultPager(store pager.BlockStore) {
	k.dpSpace = ipc.NewSpace(k.host, k.topo)
	k.dp = pager.NewDefaultPagerStore(store)
	k.dpMgr = pager.NewManager(k.dpSpace, k.dp)
	boot, err := k.dpSpace.AllocatePort()
	if err != nil {
		panic("kern: default pager bootstrap: " + err.Error())
	}
	if err := k.dpMgr.Adopt(boot); err != nil {
		panic("kern: default pager bootstrap: " + err.Error())
	}
	bootPort, err := k.dpSpace.Resolve(boot)
	if err != nil {
		panic("kern: default pager bootstrap: " + err.Error())
	}
	k.Cache.SetDefaultPagerPort(bootPort)
	k.VM.SetDefaultPager(k.Cache.AdoptInternal)
	go k.dpMgr.Run()
}

// Host returns the kernel's host identity.
func (k *Kernel) Host() machine.HostID { return k.host }

// Clock returns the simulated clock.
func (k *Kernel) Clock() *machine.Clock { return k.clock }

// Topology returns the interconnect this kernel charges messages to.
func (k *Kernel) Topology() *machine.Topology { return k.topo }

// DefaultPager returns the kernel's default pager (nil if disabled).
func (k *Kernel) DefaultPager() *pager.DefaultPager { return k.dp }

// NetMsg returns the host's network message server.
func (k *Kernel) NetMsg() *netmsg.Server { return k.nm }

// Shutdown terminates the tasks, stops the network message server and
// the default pager — waiting for the pager's loop to return — and then
// the pageout daemon.
func (k *Kernel) Shutdown() {
	k.mu.Lock()
	tasks := make([]*Task, 0, len(k.tasks))
	for t := range k.tasks {
		tasks = append(tasks, t)
	}
	k.mu.Unlock()
	for _, t := range tasks {
		t.Terminate()
	}
	if k.nm != nil {
		k.nm.Stop()
	}
	if k.dpMgr != nil {
		k.dpMgr.Stop()
	}
	k.VM.Shutdown()
}

// Statistics returns the kernel's vm_statistics (Table 3-3).
func (k *Kernel) Statistics() vm.Statistics { return k.VM.Stats() }
