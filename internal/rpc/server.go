package rpc

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ipc"
	"repro/internal/lifecycle"
	"repro/internal/obs"
)

// HandlerFunc serves one request. m is the raw message (for port-right
// and out-of-line sections, and for LocalPort-based demux state); d is a
// decoder positioned at the start of the request payload. Returning a
// non-nil error sends an error reply carrying StatusOf(err); returning
// (nil, nil) sends no reply (for one-way notifications). After a handler
// calls Server.Defer, nothing it returns is sent: the reply is the
// Deferred's.
//
// m, d and the returned Reply are recycled by the server once the
// handler's reply has been sent: a handler must not retain any of them
// past its return (decoded values, names and regions are the caller's
// to keep; the carrier objects are not).
type HandlerFunc func(m *ipc.Message, d *Dec) (*Reply, error)

// Reply is a successful reply under construction: the typed result
// fields (via the embedded Enc) plus any port-right or out-of-line
// sections to carry. The Status byte is prepended by the server; a
// handler never writes it.
type Reply struct {
	Enc
	sections []ipc.Section
	release  []ipc.Name
}

var (
	replyPool = sync.Pool{New: func() any { return new(Reply) }}
	decPool   = sync.Pool{New: func() any { return new(Dec) }}
)

// NewReply returns an empty reply builder. Builders are pooled: the
// server recycles one after sending the reply it describes, so handlers
// on the fast path construct replies without allocating.
func NewReply() *Reply { return replyPool.Get().(*Reply) }

// recycle resets a fully consumed Reply (its payload copied into the
// wire message, its sections sent) and repools it.
func (r *Reply) recycle() {
	r.buf = r.buf[:0]
	for i := range r.sections {
		r.sections[i] = ipc.Section{}
	}
	r.sections = r.sections[:0]
	r.release = r.release[:0]
	replyPool.Put(r)
}

// Carry appends a message section (a port right or an out-of-line
// region) to the reply body.
func (r *Reply) Carry(sec ipc.Section) *Reply {
	r.sections = append(r.sections, sec)
	return r
}

// CarryRelease appends a port-right section whose right is released
// from the server's space once the reply has been sent: the reply's
// in-transit reference keeps the port alive until the client installs
// it, so the server's own name does not linger in the port's sender
// count. Use it for rights the server minted only to hand to this
// client (the netmsg registry hands out proxy rights this way — a
// lingering server-side right would pin a proxy against the no-senders
// garbage collection forever).
func (r *Reply) CarryRelease(sec ipc.Section) *Reply {
	r.sections = append(r.sections, sec)
	if sec.Kind == ipc.PortRightSection && sec.PortName != 0 {
		r.release = append(r.release, sec.PortName)
	}
	return r
}

// Server is the demux loop of a service port: it owns the port, looks up
// the registered handler for each request's MsgID, and replies — with
// the handler's result, with the handler's error status, or with
// StatusBadID when no handler is registered (in the seed repo an unknown
// ID was silently dropped and the client blocked until its timeout).
//
// A server runs in one of two modes:
//
//   - Own loop: call Run (usually `go srv.Run()`); it receives on the
//     service port until Stop, optionally fanning requests out to a
//     worker pool.
//   - Embedded: servers built on pager.Manager keep the manager's
//     receive loop and install Dispatch as the manager's Default, so
//     pager calls and service calls share one thread.
type Server struct {
	// Space is the server task's port name space.
	Space *ipc.Space
	// Port is the service port name in Space (allocated and enabled by
	// NewServer); publish a send right to clients with CopySendRight.
	Port ipc.Name

	handlers map[ipc.MsgID]HandlerFunc
	// methods holds the per-MsgID metrics bundle of every registered
	// handler, resolved at registration time (same register-before-Run
	// contract as handlers, so serving reads it unsynchronized).
	methods map[ipc.MsgID]*obs.RPCMethod
	met     *obs.RPCMetrics
	workers int
	stopped atomic.Bool

	// ownWatcher is the private lifecycle watcher StopWhenUnreferenced
	// starts when the caller passes none; Stop terminates it.
	ownWatcher *lifecycle.Watcher

	poolOnce sync.Once
	ch       chan *ipc.Message
	wg       sync.WaitGroup
}

// Option configures a Server.
type Option func(*Server)

// WithWorkers makes Run dispatch requests on n concurrent worker
// goroutines instead of inline. Handlers must then be safe for
// concurrent use. Embedded (Dispatch) servers ignore it.
func WithWorkers(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.workers = n
		}
	}
}

// NewServer allocates and enables a fresh service port on space and
// returns a server demuxing it. Register handlers with Handle before
// serving requests.
func NewServer(space *ipc.Space, opts ...Option) (*Server, error) {
	port, err := space.AllocatePort()
	if err != nil {
		return nil, err
	}
	if err := space.Enable(port); err != nil {
		return nil, err
	}
	s := &Server{
		Space:    space,
		Port:     port,
		handlers: make(map[ipc.MsgID]HandlerFunc),
		methods:  make(map[ipc.MsgID]*obs.RPCMethod),
		met:      obs.RPCHost(int(space.Host())),
	}
	// Every server answers the batch container: pipelined sub-calls
	// demux through the same handler table as singleton requests.
	s.handlers[MsgBatch] = s.serveBatch
	s.methods[MsgBatch] = obs.RPCMethodMetrics(int(space.Host()), int32(MsgBatch))
	for _, o := range opts {
		o(s)
	}
	return s, nil
}

// Handle registers fn for the given request ID. Registration is not
// synchronized with serving: register every handler before Run or the
// first Dispatch.
func (s *Server) Handle(id ipc.MsgID, fn HandlerFunc) {
	s.handlers[id] = fn
	s.methods[id] = obs.RPCMethodMetrics(int(s.Space.Host()), int32(id))
}

// Run receives on the service port and dispatches until the port or
// space dies (see Stop). With WithWorkers(n) it fans requests out to n
// goroutines and returns only after they drain.
func (s *Server) Run() {
	if s.workers > 0 {
		s.poolOnce.Do(s.startPool)
		defer func() {
			close(s.ch)
			s.wg.Wait()
		}()
	}
	for {
		m, err := s.Space.Receive(s.Port, ipc.ReceiveOptions{})
		if err != nil {
			// Stop deallocated the service port (or the space died);
			// nothing more can arrive. Requests already received are
			// always served — a dequeued message must never be dropped,
			// or its client would block for its full timeout.
			return
		}
		if s.workers > 0 {
			s.ch <- m
		} else {
			s.serve(m)
			m.Release()
		}
	}
}

func (s *Server) startPool() {
	s.ch = make(chan *ipc.Message, s.workers)
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for m := range s.ch {
				s.serve(m)
				m.Release()
			}
		}()
	}
}

// ServePorts runs ONE receive loop over a port set containing this
// server's service port and every other server's — the paper's servers'
// shape of multiplexing many client ports through one receive point
// (§4-§5), here letting N services (an fs, a netmem, a camelot — any
// mix of protocols with disjoint handler tables) share a single
// goroutine instead of costing a loop each. All servers must live on
// this server's Space. Requests are dispatched to the owning server by
// arrival port, with fair round-robin across the ports, so one flooded
// service cannot starve the rest.
//
// The loop runs on the calling goroutine (usually `go a.ServePorts(b,
// c)`). With WithWorkers(n) on the receiving server s, requests fan out
// to n worker goroutines (handlers of every member server must then be
// safe for concurrent use); otherwise dispatch is inline. It returns
// nil once every member server has stopped (each Stop deallocates its
// service port, which drops the port out of the set; the emptied set
// ends the loop), or the space's death error. Received requests are
// always served before the loop exits — on the pooled path the workers
// drain before ServePorts returns.
func (s *Server) ServePorts(others ...*Server) error {
	set, err := s.Space.AllocatePortSet()
	if err != nil {
		return err
	}
	defer func() { _ = s.Space.DeallocatePort(set) }()
	byPort := make(map[ipc.Name]*Server, 1+len(others))
	for _, srv := range append([]*Server{s}, others...) {
		if srv.Space != s.Space {
			return errors.New("rpc: ServePorts servers must share one space")
		}
		if err := s.Space.MoveToPortSet(set, srv.Port); err != nil {
			return err
		}
		byPort[srv.Port] = srv
	}
	// The pool is local to this loop (not s.ch): the set multiplexes
	// several servers' ports, so a pooled request carries its owning
	// server along with the message.
	type setReq struct {
		srv *Server
		m   *ipc.Message
	}
	var pool chan setReq
	if s.workers > 0 {
		pool = make(chan setReq, s.workers)
		var wg sync.WaitGroup
		for i := 0; i < s.workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := range pool {
					r.srv.serve(r.m)
					r.m.Release()
				}
			}()
		}
		defer wg.Wait()
		defer close(pool)
	}
	for {
		m, err := s.Space.Receive(set, ipc.ReceiveOptions{})
		if err == ipc.ErrNoEnabledPorts {
			// Every member stopped; the multiplexed loop is done.
			return nil
		}
		if err != nil {
			return err
		}
		if srv, ok := byPort[m.LocalPort]; ok {
			if pool != nil {
				pool <- setReq{srv: srv, m: m}
				continue
			}
			srv.serve(m)
		}
		m.Release()
	}
}

// Stop ends a Run loop gracefully: no further requests are accepted (the
// service port is deallocated, so client sends fail fast instead of
// queueing), in-flight handlers finish, and their replies still go out
// on the clients' reply ports.
func (s *Server) Stop() {
	if s.stopped.Swap(true) {
		return
	}
	_ = s.Space.DeallocatePort(s.Port)
	if s.ownWatcher != nil {
		s.ownWatcher.Stop()
	}
}

// Stopped reports whether Stop has run (directly or through
// StopWhenUnreferenced).
func (s *Server) Stopped() bool { return s.stopped.Load() }

// StopWhenUnreferenced arranges for the server to Stop once every send
// right to its service port is gone: client-held rights, rights in
// transit inside messages, and kernel references (netmsg proxies on
// other hosts) all count; the server's own send right does not. The
// watcher w dispatches the space's notifications — servers embedded in
// a manager loop must pass the watcher chained into that loop. Passing
// nil starts a private Run-mode watcher, which is only safe when
// nothing else receives the space's notifications. Arm AFTER bootstrap
// is complete: a request armed at zero fires on the next transition to
// zero, so arming before the first CopySendRight-style publication is
// safe — but any bootstrap step that transiently mints and releases a
// right crosses zero and stops the server immediately. The netmsg
// registry's weak check-in is exactly such a step (it releases the
// carried right after recording the port), so check in first, then arm.
func (s *Server) StopWhenUnreferenced(w *lifecycle.Watcher) error {
	if w == nil {
		w = lifecycle.New(s.Space)
		s.ownWatcher = w
		go w.Run()
	}
	return w.OnNoSenders(s.Port, func(ipc.Name) { s.Stop() })
}

// Dispatch serves one already-received message — the embedded mode for
// tasks whose receive loop lives elsewhere (pager.Manager's Default).
func (s *Server) Dispatch(m *ipc.Message) { s.serve(m) }

// serve looks up the handler and sends the reply. The request message
// itself is NOT recycled here: loop modes that own their messages (Run,
// ServePorts, the worker pool) release it after serve returns, while
// Dispatch leaves ownership with the embedding receive loop.
func (s *Server) serve(m *ipc.Message) {
	fn, ok := s.handlers[m.ID]
	if !ok {
		s.replyStatus(m, StatusBadID, nil)
		return
	}
	met := s.methods[m.ID]
	start := time.Now()
	d := decPool.Get().(*Dec)
	d.Reset(m.InlineData())
	r, err := fn(m, d)
	decPool.Put(d)
	if met != nil {
		met.Calls.Inc()
		met.Latency.Record(time.Since(start).Nanoseconds())
	}
	if err != nil {
		s.replyStatus(m, StatusOf(err), nil)
		return
	}
	if r == nil {
		// One-way message: nothing to send, but still release the reply
		// right if the sender attached one.
		if m.RemotePort != 0 {
			_ = s.Space.DeallocatePort(m.RemotePort)
		}
		return
	}
	s.replyStatus(m, StatusOK, r)
	r.recycle()
}

// Deferred is a reply a handler took over from the server with Defer: the
// request's reply port and trace ID, answered later — from any goroutine,
// exactly once — with Reply.
type Deferred struct {
	s     *Server
	id    ipc.MsgID
	port  ipc.Name
	trace uint64
}

// Defer takes the reply port and the trace ID out of request m, so the
// server sends nothing for m when the handler returns; the handler's
// owner answers later with Deferred.Reply. It refuses (ok false) a
// sub-call of a batch: a batched handler receives the container message,
// whose one reply carries every sub-reply, so it must answer before it
// returns.
func (s *Server) Defer(m *ipc.Message) (d Deferred, ok bool) {
	if m.ID == MsgBatch {
		return Deferred{}, false
	}
	d = Deferred{s: s, id: m.ID, port: m.RemotePort, trace: m.Trace()}
	m.RemotePort = 0
	m.SetTrace(0)
	return d, true
}

// Reply sends the deferred reply: a bare status, as an error reply or
// the OK of a method without result fields.
func (d Deferred) Reply(st Status) { d.s.send(d.id, d.port, d.trace, st, nil) }

// replyStatus sends [status][result fields][sections] to the request's
// reply port, then drops the server's send right to it. Requests without
// a reply port get no reply (and error statuses are simply dropped, as
// Mach drops replies to one-way messages).
func (s *Server) replyStatus(m *ipc.Message, st Status, r *Reply) {
	s.send(m.ID, m.RemotePort, m.Trace(), st, r)
}

// send is the one reply path of replyStatus and Deferred.Reply: the reply
// to request id goes to port, inside trace.
func (s *Server) send(id ipc.MsgID, port ipc.Name, trace uint64, st Status, r *Reply) {
	if r != nil && len(r.release) > 0 {
		// CarryRelease rights leave the server's space once the reply
		// (whose transit references now hold them) is on its way — or
		// immediately when there is no reply port to carry them to.
		defer func() {
			for _, n := range r.release {
				_ = s.Space.DeallocatePort(n)
			}
		}()
	}
	if port == 0 {
		return
	}
	var body []byte
	var extra []ipc.Section
	if r != nil {
		body = r.Payload()
		extra = r.sections
	}
	rm := ipc.GetMessage()
	rm.ID = id
	rm.RemotePort = port
	// A traced request's reply joins the same trace: the ID is copied
	// before Send so Send never mints a second one, keeping one logical
	// RPC one trace end to end.
	if trace != 0 {
		rm.SetTrace(trace)
		obs.RecordHop(int32(s.Space.Host()), trace, obs.HopReply, int32(id), 0)
	}
	// The status byte and result fields are copied into the reply
	// message's own scratch buffer, which travels (and is recycled)
	// with it — the Reply builder is free for reuse the moment this
	// returns.
	rm.InlineCopy([]byte{byte(st)}, body)
	for i := range extra {
		rm.AppendSection(extra[i])
	}
	// Replies are forced past the backlog: a server must never block on
	// a slow client.
	if err := s.Space.Send(rm, ipc.SendOptions{Force: true}); err != nil {
		// Undeliverable (the client died): Send already disposed of the
		// carried rights, so the message can go straight back.
		rm.Release()
	}
	_ = s.Space.DeallocatePort(port)
}
