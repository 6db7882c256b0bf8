package experiments

import (
	"sync"

	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/pager"
	"repro/internal/vm"
)

// memPager is an in-memory data manager speaking the full IPC protocol,
// used as the external pager in the experiments.
type memPager struct {
	pager.NopHandler
	mu          sync.Mutex
	store       map[uint64][]byte
	pageSize    int
	lockValue   vm.Prot
	grantUnlock bool
	silent      bool
	requests    int64
}

func newMemPager(pageSize int) *memPager {
	return &memPager{store: map[uint64][]byte{}, pageSize: pageSize}
}

func (mp *memPager) seedRange(pages int, fill byte) {
	mp.mu.Lock()
	for i := 0; i < pages; i++ {
		page := make([]byte, mp.pageSize)
		for j := range page {
			page[j] = fill
		}
		mp.store[uint64(i*mp.pageSize)] = page
	}
	mp.mu.Unlock()
}

func (mp *memPager) DataRequest(mo *pager.MemoryObject, offset, length uint64, desired vm.Prot) {
	mp.mu.Lock()
	mp.requests++
	silent := mp.silent
	data, ok := mp.store[offset]
	lock := mp.lockValue
	mp.mu.Unlock()
	if silent {
		return
	}
	if !ok {
		_ = mo.DataUnavailable(offset, uint64(mp.pageSize))
		return
	}
	_ = mo.DataProvided(offset, data, lock)
}

func (mp *memPager) DataWrite(mo *pager.MemoryObject, offset uint64, data []byte) {
	cp := append([]byte(nil), data...)
	mp.mu.Lock()
	mp.store[offset] = cp
	mp.mu.Unlock()
}

func (mp *memPager) DataUnlock(mo *pager.MemoryObject, offset, length uint64, desired vm.Prot) {
	mp.mu.Lock()
	grant := mp.grantUnlock
	mp.mu.Unlock()
	if grant {
		_ = mo.DataLock(offset, length, vm.ProtNone)
	}
}

// startMemPager runs a memPager manager task on k and returns the pager,
// its manager, and the memory object name installed in client's space.
func startMemPager(k *kern.Kernel, client *kern.Task, pageSize int) (*memPager, *pager.Manager, ipc.Name, error) {
	task := k.NewTask()
	mp := newMemPager(pageSize)
	mgr := pager.NewManager(task.Space, mp)
	mo, err := mgr.NewObject(nil)
	if err != nil {
		return nil, nil, 0, err
	}
	go mgr.Run()
	name, err := task.Space.CopySendRight(client.Space, mo.Port)
	if err != nil {
		return nil, nil, 0, err
	}
	return mp, mgr, name, nil
}

// echoServer answers every message on svc with an identical-payload
// reply; used to measure RPC round trips.
func echoServer(task *kern.Task, svc ipc.Name, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		m, err := task.Receive(svc, ipc.ReceiveOptions{NonBlocking: false, Timeout: 0})
		if err != nil {
			return
		}
		if m.RemotePort == 0 {
			continue
		}
		_ = task.Send(&ipc.Message{
			ID:         m.ID + 1,
			RemotePort: m.RemotePort,
			Sections:   []ipc.Section{ipc.InlineBytes(m.InlineData())},
		}, ipc.SendOptions{Force: true})
		_ = task.Space.DeallocatePort(m.RemotePort)
	}
}
