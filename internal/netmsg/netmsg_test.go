// Cross-host IPC tests: an external test package so the full stack —
// kern kernels, the fs and netmem services, typed rpc — can be driven
// through netmsg proxies exactly as applications use it.
package netmsg_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/fs"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/netmem"
	"repro/internal/netmsg"
	"repro/internal/rpc"
	"repro/mach"
)

// complex2 boots a two-host NORMA complex sharing one netmsg network.
func complex2(t testing.TB) (k0, k1 *kern.Kernel, topo *machine.Topology) {
	t.Helper()
	kernels, topo, _ := mach.Complex(2, machine.NORMA, 1024, 4096)
	t.Cleanup(func() {
		for _, k := range kernels {
			k.Shutdown()
		}
	})
	return kernels[0], kernels[1], topo
}

// checkIn registers the named right of task t's space with its host's
// message server.
func checkIn(t testing.TB, task *kern.Task, name string, port ipc.Name) {
	t.Helper()
	svc, err := task.Kernel().NetMsg().Publish(task.Space)
	if err != nil {
		t.Fatal(err)
	}
	if err := netmsg.CheckIn(task.Space, svc, name, port); err != nil {
		t.Fatal(err)
	}
}

// lookUp resolves name through task's host message server.
func lookUp(t testing.TB, task *kern.Task, name string) ipc.Name {
	t.Helper()
	svc, err := task.Kernel().NetMsg().Publish(task.Space)
	if err != nil {
		t.Fatal(err)
	}
	n, err := netmsg.LookUp(task.Space, svc, name)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRegistry covers the bootstrap name service: local check-in and
// lookup, remote lookup returning a shared proxy, and the not-found
// path.
func TestRegistry(t *testing.T) {
	k0, k1, _ := complex2(t)
	server := k0.NewTask()
	svcPort, err := server.Space.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	checkIn(t, server, "echo", svcPort)

	// Local lookup resolves to the real port.
	localName := lookUp(t, server, "echo")
	realPort, err := server.Space.Resolve(svcPort)
	if err != nil {
		t.Fatal(err)
	}
	got, err := server.Space.Resolve(localName)
	if err != nil {
		t.Fatal(err)
	}
	if got != realPort {
		t.Fatal("local lookup should resolve to the service port itself")
	}

	// Remote lookups resolve to one shared proxy, not the real port.
	c1, c2 := k1.NewTask(), k1.NewTask()
	p1, err := c1.Space.Resolve(lookUp(t, c1, "echo"))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c2.Space.Resolve(lookUp(t, c2, "echo"))
	if err != nil {
		t.Fatal(err)
	}
	if p1 == realPort {
		t.Fatal("remote lookup handed out the home port instead of a proxy")
	}
	if p1 != p2 {
		t.Fatal("two lookups on one host should share one proxy")
	}

	// Unknown names fail with the typed error from any host.
	nmSvc, err := k1.NetMsg().Publish(c1.Space)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := netmsg.LookUp(c1.Space, nmSvc, "no-such-service"); !errors.Is(err, netmsg.ErrNotFound) {
		t.Fatalf("lookup of unknown name: got %v, want ErrNotFound", err)
	}
}

// startEcho runs a typed rpc echo service on task: MsgID 9000 replies
// with the request bytes reversed.
const msgEcho ipc.MsgID = 9000

func startEcho(t testing.TB, task *kern.Task) *rpc.Server {
	t.Helper()
	srv, err := rpc.NewServer(task.Space)
	if err != nil {
		t.Fatal(err)
	}
	srv.Handle(msgEcho, func(m *ipc.Message, d *rpc.Dec) (*rpc.Reply, error) {
		b := d.Bytes()
		if err := d.Err(); err != nil {
			return nil, err
		}
		rev := make([]byte, len(b))
		for i := range b {
			rev[len(b)-1-i] = b[i]
		}
		r := rpc.NewReply()
		r.Bytes(rev)
		return r, nil
	})
	go srv.Run()
	t.Cleanup(srv.Stop)
	return srv
}

// TestCrossHostRPC proves a plain typed RPC round trip through a proxy:
// client on host 1, server on host 0, reply port re-proxied in reverse,
// and the interconnect charged for both forwarded hops.
func TestCrossHostRPC(t *testing.T) {
	k0, k1, topo := complex2(t)
	server := k0.NewTask()
	srv := startEcho(t, server)
	checkIn(t, server, "echo", srv.Port)

	client := k1.NewTask()
	svc := lookUp(t, client, "echo")
	topo.ResetStats()
	resp, err := rpc.NewClient(client.Space, svc, 10*time.Second).
		Invoke(msgEcho, rpc.NewEnc().Bytes([]byte("transparent")))
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Dec.Bytes(); string(got) != "tnerapsnart" {
		t.Fatalf("echo reply = %q", got)
	}
	st := topo.Stats()
	if st.RemoteMessages < 2 {
		t.Fatalf("forwarded request and reply should cross the interconnect: %+v", st)
	}
	if st.LocalMessages < 2 {
		t.Fatalf("each forwarded hop should also pay the local hop onto its proxy: %+v", st)
	}
}

// TestCrossHostFS runs the UNMODIFIED §4.1 filesystem client on host 1
// against a server on host 0 through netmsg proxies: typed RPCs plus
// out-of-line regions in both directions.
func TestCrossHostFS(t *testing.T) {
	k0, k1, _ := complex2(t)
	disk := machine.NewDisk(512, 4096, 0, k0.Clock())
	srv, err := fs.NewServer(k0, disk)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Run()
	defer srv.Stop()

	// Any host-0 task holding the service right may check it in.
	registrar := k0.NewTask()
	svc0, err := srv.Publish(registrar)
	if err != nil {
		t.Fatal(err)
	}
	checkIn(t, registrar, "fs", svc0)

	client := k1.NewTask()
	svc := lookUp(t, client, "fs")

	content := bytes.Repeat([]byte("the duality of memory and communication "), 400)
	addr, err := client.VMAllocate(0, uint64(len(content)), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.VMWrite(addr, content); err != nil {
		t.Fatal(err)
	}
	// Write travels client->server as an OOL region.
	if err := fs.WriteFile(client, svc, "paper.txt", addr, uint64(len(content))); err != nil {
		t.Fatalf("cross-host WriteFile: %v", err)
	}
	if size, err := fs.Stat(client, svc, "paper.txt"); err != nil || size != uint64(len(content)) {
		t.Fatalf("cross-host Stat: size=%d err=%v", size, err)
	}
	names, err := fs.List(client, svc)
	if err != nil || len(names) != 1 || names[0] != "paper.txt" {
		t.Fatalf("cross-host List: %v %v", names, err)
	}
	// Read travels server->client as an OOL region, demand-paged on the
	// server host.
	raddr, rsize, err := fs.ReadFile(client, svc, "paper.txt")
	if err != nil {
		t.Fatalf("cross-host ReadFile: %v", err)
	}
	got, err := client.VMRead(raddr, rsize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("cross-host read returned different bytes than written")
	}
	if err := client.VMDeallocate(raddr, fs.MappedSize(client, rsize)); err != nil {
		t.Fatal(err)
	}
}

// TestCrossHostNetmem attaches one shared region from both hosts — the
// memory half of the duality over the communication half: the memory
// object right returned by Attach is a proxy on host 1, so every pager
// call for it crosses the interconnect through netmsg.
func TestCrossHostNetmem(t *testing.T) {
	k0, k1, _ := complex2(t)
	srv, err := netmem.NewServer(k0)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Run()
	defer srv.Stop()

	registrar := k0.NewTask()
	svc0, err := srv.Publish(registrar)
	if err != nil {
		t.Fatal(err)
	}
	checkIn(t, registrar, "netmem", svc0)

	local := k0.NewTask()
	remote := k1.NewTask()
	svcLocal := lookUp(t, local, "netmem")
	svcRemote := lookUp(t, remote, "netmem")

	if err := netmem.Create(remote, svcRemote, "board", 2*4096); err != nil {
		t.Fatalf("create from remote host: %v", err)
	}
	laddr, _, err := netmem.Attach(local, svcLocal, "board")
	if err != nil {
		t.Fatal(err)
	}
	raddr, _, err := netmem.Attach(remote, svcRemote, "board")
	if err != nil {
		t.Fatalf("attach through proxy object port: %v", err)
	}

	// Writes on one host become visible on the other through the
	// single-writer protocol, every hop of which is proxied.
	if err := remote.VMWrite(raddr+100, []byte{42}); err != nil {
		t.Fatal(err)
	}
	b, err := local.VMRead(laddr+100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 42 {
		t.Fatalf("host 0 read %d, want 42", b[0])
	}
	if err := local.VMWrite(laddr+4096, []byte{7}); err != nil {
		t.Fatal(err)
	}
	b, err = remote.VMRead(raddr+4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 7 {
		t.Fatalf("host 1 read %d, want 7", b[0])
	}
}

// TestCrossHostCarriedRights sends a port right from host 1 to host 0
// inside a message body and back: the server acquires a re-proxied
// right to a client-local port and notifies through it directly.
func TestCrossHostCarriedRights(t *testing.T) {
	const msgSub ipc.MsgID = 9100
	k0, k1, _ := complex2(t)
	server := k0.NewTask()
	srv, err := rpc.NewServer(server.Space)
	if err != nil {
		t.Fatal(err)
	}
	srv.Handle(msgSub, func(m *ipc.Message, d *rpc.Dec) (*rpc.Reply, error) {
		// The carried right was installed in the server's space by
		// delivery; push a notification through it, then release it.
		for i := range m.Sections {
			sec := &m.Sections[i]
			if sec.Kind == ipc.PortRightSection && sec.PortName != 0 {
				err := server.Space.Send(&ipc.Message{
					ID:         msgSub + 1,
					RemotePort: sec.PortName,
					Sections:   []ipc.Section{ipc.InlineBytes([]byte("hello from host 0"))},
				}, ipc.SendOptions{})
				if err != nil {
					return nil, err
				}
				_ = server.Space.DeallocatePort(sec.PortName)
			}
		}
		return rpc.NewReply(), nil
	})
	go srv.Run()
	defer srv.Stop()
	checkIn(t, server, "subscribe", srv.Port)

	client := k1.NewTask()
	svc := lookUp(t, client, "subscribe")
	inbox, err := client.Space.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rpc.NewClient(client.Space, svc, 10*time.Second).
		Invoke(msgSub, rpc.NewEnc(), ipc.CarryRight(inbox, ipc.SendRight)); err != nil {
		t.Fatal(err)
	}
	m, err := client.Space.Receive(inbox, ipc.ReceiveOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("notification through re-proxied right: %v", err)
	}
	if m.ID != msgSub+1 || string(m.InlineData()) != "hello from host 0" {
		t.Fatalf("unexpected notification %d %q", m.ID, m.InlineData())
	}
}

// TestReceiveRightMigratesHome moves a receive right across hosts in a
// message: the queue rehomes, and a proxied sender's traffic follows it
// to the new host.
func TestReceiveRightMigratesHome(t *testing.T) {
	const msgMove ipc.MsgID = 9200
	k0, k1, _ := complex2(t)
	server := k0.NewTask()
	mailbox, err := server.Space.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	inPort, err := server.Space.Resolve(mailbox)
	if err != nil {
		t.Fatal(err)
	}
	if inPort.Home() != k0.Host() {
		t.Fatalf("mailbox born on host %d", inPort.Home())
	}
	client := k1.NewTask()
	// Host 1 checks in an inbox; host 0 mails the mailbox's receive
	// right into it through the proxy.
	inboxName, err := client.Space.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	checkIn(t, client, "inbox", inboxName)
	inboxSvc := lookUp(t, server, "inbox")
	if err := server.Space.Send(&ipc.Message{
		ID:         msgMove,
		RemotePort: inboxSvc,
		Sections:   []ipc.Section{ipc.CarryRight(mailbox, ipc.SendRight|ipc.ReceiveRight)},
	}, ipc.SendOptions{}); err != nil {
		t.Fatal(err)
	}
	m, err := client.Space.Receive(inboxName, ipc.ReceiveOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	moved := m.Sections[0].PortName
	if moved == 0 {
		t.Fatal("receive right lost in transit")
	}
	p, err := client.Space.Resolve(moved)
	if err != nil {
		t.Fatal(err)
	}
	if p != inPort {
		t.Fatal("a receive right must travel as the real port, not a proxy")
	}
	if p.Home() != k1.Host() {
		t.Fatalf("queue did not rehome: home=%d", p.Home())
	}
	if err := client.Space.Send(&ipc.Message{ID: msgMove + 1, RemotePort: moved},
		ipc.SendOptions{NonBlocking: true}); err != nil {
		t.Fatal(err)
	}
	if m, err := client.Space.Receive(moved, ipc.ReceiveOptions{Timeout: time.Second}); err != nil || m.ID != msgMove+1 {
		t.Fatalf("receive on migrated right: %v", err)
	}
}

// TestProxiedRPCTimeoutNoStaleReply extends the reply-port retirement
// guarantee across hosts: a reply forwarded home after the caller timed
// out must never surface in a later call on the same client.
func TestProxiedRPCTimeoutNoStaleReply(t *testing.T) {
	const msgSlow ipc.MsgID = 9300
	k0, k1, _ := complex2(t)
	server := k0.NewTask()
	srv, err := rpc.NewServer(server.Space)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	srv.Handle(msgSlow, func(m *ipc.Message, d *rpc.Dec) (*rpc.Reply, error) {
		seq := d.U32()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if seq == 1 {
			<-release // stall the first call past its caller's timeout
		}
		r := rpc.NewReply()
		r.U32(seq)
		return r, nil
	})
	go srv.Run()
	defer srv.Stop()
	checkIn(t, server, "slow", srv.Port)

	client := k1.NewTask()
	svc := lookUp(t, client, "slow")
	short := rpc.NewClient(client.Space, svc, 250*time.Millisecond)
	if _, err := short.Invoke(msgSlow, rpc.NewEnc().U32(1)); !errors.Is(err, ipc.ErrRcvTimedOut) {
		t.Fatalf("stalled call: got %v, want ErrRcvTimedOut", err)
	}
	// Let the stalled reply chase a retired reply port home.
	close(release)
	// Many follow-up calls on the same client (and so the same reply
	// port pool): every reply must match its own request.
	long := rpc.NewClient(client.Space, svc, 10*time.Second)
	for seq := uint32(2); seq < 20; seq++ {
		resp, err := long.Invoke(msgSlow, rpc.NewEnc().U32(seq))
		if err != nil {
			t.Fatalf("call %d after cross-host timeout: %v", seq, err)
		}
		if got := resp.Dec.U32(); got != seq {
			t.Fatalf("call %d received stale reply %d", seq, got)
		}
	}
}

// TestCrossHostStress hammers proxies from both directions under -race:
// concurrent clients on host 1 carry port rights and OOL regions to a
// host-0 server, which answers with an OOL region of its own and a
// one-way message through each carried right.
func TestCrossHostStress(t *testing.T) {
	const msgWork ipc.MsgID = 9400
	k0, k1, _ := complex2(t)
	server := k0.NewTask()
	srv, err := rpc.NewServer(server.Space)
	if err != nil {
		t.Fatal(err)
	}
	srv.Handle(msgWork, func(m *ipc.Message, d *rpc.Dec) (*rpc.Reply, error) {
		tag := d.U32()
		if err := d.Err(); err != nil {
			return nil, err
		}
		// Map the client's region (cross-host copy), then send its
		// first byte through the carried right as a one-way note.
		region := m.FirstRegion()
		if region == nil {
			return nil, rpc.Errf(rpc.StatusBadArgs, "no region")
		}
		addr, err := k0.MapOOLRegion(server, region)
		if err != nil {
			return nil, err
		}
		first, err := server.VMRead(addr, 1)
		if err != nil {
			return nil, err
		}
		if err := server.VMDeallocate(addr, uint64(region.Size())); err != nil {
			return nil, err
		}
		for i := range m.Sections {
			sec := &m.Sections[i]
			if sec.Kind == ipc.PortRightSection && sec.PortName != 0 {
				_ = server.Space.Send(&ipc.Message{
					ID:         msgWork + 1,
					RemotePort: sec.PortName,
					Sections:   []ipc.Section{ipc.InlineBytes(first)},
				}, ipc.SendOptions{Force: true})
				_ = server.Space.DeallocatePort(sec.PortName)
			}
		}
		// Reply with a server-side OOL region stamped with the tag.
		out, err := server.VMAllocate(0, 4096, true)
		if err != nil {
			return nil, err
		}
		if err := server.VMWrite(out, []byte{byte(tag)}); err != nil {
			return nil, err
		}
		reg, err := k0.NewOOLRegion(server, out, 4096)
		if err != nil {
			return nil, err
		}
		if err := server.VMDeallocate(out, 4096); err != nil {
			return nil, err
		}
		r := rpc.NewReply()
		r.U32(tag)
		r.Carry(ipc.CarryRegion(reg))
		return r, nil
	})
	go srv.Loop.Run(4)
	defer srv.Stop()
	checkIn(t, server, "work", srv.Port)

	const (
		goroutines = 8
		iters      = 20
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := k1.NewTask()
			svc := lookUp(t, client, "work")
			inbox, err := client.Space.AllocatePort()
			if err != nil {
				errs <- err
				return
			}
			if err := client.Space.SetBacklog(inbox, iters+1); err != nil {
				errs <- err
				return
			}
			c := rpc.NewClient(client.Space, svc, 30*time.Second)
			for i := 0; i < iters; i++ {
				tag := uint32(g*1000 + i)
				addr, err := client.VMAllocate(0, 4096, true)
				if err != nil {
					errs <- err
					return
				}
				if err := client.VMWrite(addr, []byte{byte(tag)}); err != nil {
					errs <- err
					return
				}
				reg, err := k1.NewOOLRegion(client, addr, 4096)
				if err != nil {
					errs <- err
					return
				}
				if err := client.VMDeallocate(addr, 4096); err != nil {
					errs <- err
					return
				}
				resp, err := c.Invoke(msgWork, rpc.NewEnc().U32(tag),
					ipc.CarryRight(inbox, ipc.SendRight), ipc.CarryRegion(reg))
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: %w", g, i, err)
					return
				}
				if got := resp.Dec.U32(); got != tag {
					errs <- fmt.Errorf("goroutine %d iter %d: cross-wired reply %d", g, i, got)
					return
				}
				region := resp.Msg.FirstRegion()
				if region == nil {
					errs <- fmt.Errorf("goroutine %d iter %d: reply without region", g, i)
					return
				}
				raddr, err := k1.MapOOLRegion(client, region)
				if err != nil {
					errs <- err
					return
				}
				b, err := client.VMRead(raddr, 1)
				if err != nil {
					errs <- err
					return
				}
				if b[0] != byte(tag) {
					errs <- fmt.Errorf("goroutine %d iter %d: region byte %d want %d", g, i, b[0], byte(tag))
					return
				}
				if err := client.VMDeallocate(raddr, uint64(region.Size())); err != nil {
					errs <- err
					return
				}
				m, err := client.Space.Receive(inbox, ipc.ReceiveOptions{Timeout: 30 * time.Second})
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d inbox: %w", g, i, err)
					return
				}
				if m.ID != msgWork+1 || len(m.InlineData()) != 1 || m.InlineData()[0] != byte(tag) {
					errs <- fmt.Errorf("goroutine %d iter %d: bad note %d %v", g, i, m.ID, m.InlineData())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
