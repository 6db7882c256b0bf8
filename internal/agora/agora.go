// Package agora implements the §8.4 application: an Agora-style shared
// blackboard for cooperating agents. "Both communication and memory
// sharing are used to implement a shared blackboard structure in which
// hypotheses are placed and evaluated by multiple cooperating agents. ...
// All accesses to the blackboard are through a procedural interface that
// determines if shared memory or communication must be used."
//
// The blackboard physically resides on one host as a consistent shared
// memory region (package netmem). Agents whose kernel can map the region
// use shared memory directly — posting a hypothesis is a few memory
// writes under a blackboard mutex built ON TOP of the shared memory
// (exercising the §4.2 consistency protocol). Loosely coupled agents use
// message passing to a broker task instead, exactly the split the paper
// describes between the multiprocessor host and the workstations around
// it.
package agora

import (
	"errors"

	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/netmem"
	"repro/internal/rpc"
)

// Blackboard layout, all little-endian:
//
//	page 0:  [lock word][count word][generation word]
//	page 1+: hypothesis slots, SlotSize bytes each
const (
	offLock       = 0
	offCount      = 8
	offGeneration = 16
)

// SlotSize is the fixed size of one hypothesis record: an 8-byte score
// followed by NUL-padded text.
const SlotSize = 128

// Hypothesis is one blackboard entry.
type Hypothesis struct {
	// Score is the agent-assigned plausibility.
	Score uint64
	// Text is the hypothesis content (at most SlotSize-8 bytes).
	Text string
}

// Errors returned by blackboard operations.
var (
	// ErrFull: no free hypothesis slots.
	ErrFull = errors.New("agora: blackboard full")
	// ErrTooLarge: hypothesis text exceeds the slot size.
	ErrTooLarge = errors.New("agora: hypothesis too large")
)

// The broker wire protocol (for message-passing agents) — message IDs,
// payload codecs, the typed client and the server demux — is generated
// from internal/idl/defs/agora.go (zz_generated_machgen.go), as is the
// shared blackboard page layout the agents poll.

// Board is the hub: it owns the shared memory region and runs the broker
// port for loosely coupled agents.
type Board struct {
	kernel *kern.Kernel
	task   *kern.Task
	srv    *netmem.Server
	local  *Agent // the board's own mapping, used by the broker
	broker *rpc.Server

	// BrokerPort receives message-passing agents' requests.
	BrokerPort ipc.Name

	slots int
}

// NewBoard creates a blackboard with the given number of hypothesis slots
// on kernel k (the multiprocessor host), backed by shared memory server
// srv (usually also on k).
func NewBoard(k *kern.Kernel, srv *netmem.Server, slots int) (*Board, error) {
	if slots < 1 {
		slots = 1
	}
	ps := k.VM.PageSize()
	pages := (uint64(slots)*SlotSize + ps - 1) / ps
	if err := srv.CreateRegion("agora-blackboard", (1+pages)*ps); err != nil {
		return nil, err
	}
	b := &Board{
		kernel: k,
		task:   k.NewTask(),
		srv:    srv,
		slots:  slots,
	}
	var err error
	b.local, err = JoinShared(b.task, srv, slots)
	if err != nil {
		return nil, err
	}
	broker, err := rpc.NewServer(b.task.Space)
	if err != nil {
		return nil, err
	}
	RegisterAgoraServer(broker, (*brokerService)(b))
	b.broker = broker
	b.BrokerPort = broker.Port
	go broker.Run()
	return b, nil
}

// Stop shuts the broker down.
func (b *Board) Stop() {
	b.broker.Stop()
	b.task.Terminate()
}

// RetireBrokerWhenUnreferenced makes the broker stop once every loosely
// coupled agent's send right to it is gone — a board whose message
// agents have all disconnected (or died) no longer runs a broker loop.
// Tightly coupled (shared memory) agents are unaffected. Call after the
// board is set up; broker rights published afterwards count.
func (b *Board) RetireBrokerWhenUnreferenced() error {
	return b.broker.StopWhenUnreferenced(nil)
}

// BrokerRetired reports whether the broker has stopped (by Stop or by
// the no-senders retirement).
func (b *Board) BrokerRetired() bool { return b.broker.Stopped() }

// PublishBroker hands a message-passing agent a send right to the broker.
func (b *Board) PublishBroker(client *kern.Task) (ipc.Name, error) {
	return b.task.Space.CopySendRight(client.Space, b.BrokerPort)
}

// PublishSharedMemory hands a tightly coupled agent the shared memory
// service port so it can JoinShared.
func (b *Board) PublishSharedMemory(client *kern.Task) (ipc.Name, error) {
	return b.srv.Publish(client)
}

// brokerService implements the generated AgoraServerAPI: it serves
// message-passing agents through the board's own shared memory mapping
// — the procedural interface deciding "if shared memory or
// communication must be used".
type brokerService Board

// Post serves a message-passing agent's post.
func (h *brokerService) Post(m *ipc.Message, in *PostRequest) error {
	b := (*Board)(h)
	err := b.local.Post(Hypothesis{Score: in.Score, Text: in.Text})
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrFull):
		return rpc.Errf(rpc.StatusFull, "agora: blackboard full")
	case errors.Is(err, ErrTooLarge):
		return rpc.Errf(rpc.StatusTooLarge, "agora: hypothesis too large")
	default:
		return err
	}
}

// Snapshot reads the blackboard for a message-passing agent.
func (h *brokerService) Snapshot(m *ipc.Message) (*SnapshotReply, error) {
	hyps, err := (*Board)(h).local.Snapshot()
	if err != nil {
		return nil, err
	}
	return &SnapshotReply{Entries: hyps}, nil
}
