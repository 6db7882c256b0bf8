// machbench mcore: the multicore throughput sweep, standalone.
//
// Reruns the contended IPC shapes from the root benchmark suite
// (send, fan-in, RPC, port-set) across a GOMAXPROCS ladder and prints
// msgs/sec per point, so scaling can be eyeballed without the testing
// harness. With -profile DIR it also captures per-workload pprof
// profiles: cpu (where the time goes), allocs (what escapes to the
// heap), mutex and block (which lock or wait point serializes the
// shape).
//
// Usage:
//
//	machbench mcore                     # sweep 1,2,4,8 procs
//	machbench mcore -procs 1,4 -n 20000
//	machbench mcore -profile /tmp/prof  # + cpu/allocs/mutex/block profiles
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/mach"
)

const mcoreEcho mach.MsgID = 9500

// mcoreWorkload runs msgs messages spread over procs goroutines and
// reports how many were moved (normally msgs; short on error).
type mcoreWorkload struct {
	name string
	doc  string
	run  func(procs, msgs int) (int, error)
}

var mcoreWorkloads = []mcoreWorkload{
	{"send", "N senders -> N ports, one receiver task", mcoreSend},
	{"fanin", "N senders -> one port, one receiver", mcoreFanIn},
	{"rpc", "N clients -> echo service, N workers", mcoreRPC},
	{"portset", "N clients -> 3 services, one port-set loop", mcorePortSet},
}

func runMcore(argv []string) {
	fs := flag.NewFlagSet("mcore", flag.ExitOnError)
	procsFlag := fs.String("procs", "1,2,4,8", "comma-separated GOMAXPROCS ladder")
	msgs := fs.Int("n", 50000, "messages per sweep point")
	profileDir := fs.String("profile", "", "write cpu/allocs/mutex/block profiles into this directory")
	_ = fs.Parse(argv)

	var ladder []int
	for _, f := range strings.Split(*procsFlag, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || p < 1 {
			fmt.Fprintf(os.Stderr, "machbench mcore: bad -procs entry %q\n", f)
			os.Exit(1)
		}
		ladder = append(ladder, p)
	}
	if *profileDir != "" {
		if err := os.MkdirAll(*profileDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "machbench mcore: %v\n", err)
			os.Exit(1)
		}
		// Sample every contended mutex event and every blocking event
		// over ~1us; the sweep is short, so full sampling is affordable.
		runtime.SetMutexProfileFraction(1)
		runtime.SetBlockProfileRate(1000)
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	fmt.Printf("machbench mcore: %d msgs/point, ladder %v (host has %d CPUs)\n\n",
		*msgs, ladder, runtime.NumCPU())
	fmt.Printf("%-8s %-10s %12s %12s\n", "workload", "procs", "msgs/s", "ns/msg")
	for _, w := range mcoreWorkloads {
		if *profileDir != "" {
			// One CPU profile per workload, covering its whole ladder.
			f, err := os.Create(filepath.Join(*profileDir, w.name+".cpu.pprof"))
			if err != nil {
				fmt.Fprintf(os.Stderr, "machbench mcore: %v\n", err)
				os.Exit(1)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "machbench mcore: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
		}
		for _, procs := range ladder {
			runtime.GOMAXPROCS(procs)
			start := time.Now()
			moved, err := w.run(procs, *msgs)
			elapsed := time.Since(start)
			if err != nil {
				fmt.Fprintf(os.Stderr, "machbench mcore: %s/procs=%d: %v\n", w.name, procs, err)
				os.Exit(1)
			}
			rate := float64(moved) / elapsed.Seconds()
			fmt.Printf("%-8s %-10d %12.0f %12.0f\n",
				w.name, procs, rate, float64(elapsed.Nanoseconds())/float64(moved))
		}
		if *profileDir != "" {
			pprof.StopCPUProfile()
			fmt.Printf("  wrote %s\n", filepath.Join(*profileDir, w.name+".cpu.pprof"))
			writeProfile(*profileDir, w.name, "allocs")
			writeProfile(*profileDir, w.name, "mutex")
			writeProfile(*profileDir, w.name, "block")
		}
	}
}

func writeProfile(dir, workload, kind string) {
	p := pprof.Lookup(kind)
	if p == nil {
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s.%s.pprof", workload, kind))
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "machbench mcore: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := p.WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "machbench mcore: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("  wrote %s\n", path)
}

// mcoreSend: procs senders each flood a private port; one receiver task
// drains all of them. Exercises space-shard and per-port lock scaling.
func mcoreSend(procs, msgs int) (int, error) {
	k := mach.NewKernel(mach.Config{Frames: 256, PageSize: 4096})
	var drainers sync.WaitGroup
	// LIFO: Shutdown kills the ports, which unblocks the drainers Wait
	// then joins.
	defer drainers.Wait()
	defer k.Shutdown()
	receiver := k.NewTask()
	sender := k.NewTask()
	per := msgs / procs
	if per == 0 {
		per = 1
	}
	names := make([]mach.Name, procs)
	for i := range names {
		svc, err := receiver.Space.AllocatePort()
		if err != nil {
			return 0, err
		}
		_ = receiver.Space.SetBacklog(svc, 1024)
		if names[i], err = receiver.Space.CopySendRight(sender.Space, svc); err != nil {
			return 0, err
		}
		drainers.Add(1)
		go func(svc mach.Name) {
			defer drainers.Done()
			for {
				m, err := receiver.Receive(svc, mach.ReceiveOptions{})
				if err != nil {
					return
				}
				m.Release()
			}
		}(svc)
	}
	errc := make(chan error, procs)
	for i := 0; i < procs; i++ {
		go func(n mach.Name) {
			for j := 0; j < per; j++ {
				m := mach.GetMessage()
				m.ID = 1
				m.RemotePort = n
				if err := sender.Send(m, mach.SendOptions{}); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(names[i])
	}
	for i := 0; i < procs; i++ {
		if err := <-errc; err != nil {
			return 0, err
		}
	}
	return per * procs, nil
}

// mcoreFanIn: procs senders converge on one port; the caller drains.
func mcoreFanIn(procs, msgs int) (int, error) {
	k := mach.NewKernel(mach.Config{Frames: 256, PageSize: 4096})
	defer k.Shutdown()
	receiver := k.NewTask()
	sender := k.NewTask()
	svc, err := receiver.Space.AllocatePort()
	if err != nil {
		return 0, err
	}
	_ = receiver.Space.SetBacklog(svc, 1024)
	name, err := receiver.Space.CopySendRight(sender.Space, svc)
	if err != nil {
		return 0, err
	}
	per := msgs / procs
	if per == 0 {
		per = 1
	}
	total := per * procs
	errc := make(chan error, procs)
	for i := 0; i < procs; i++ {
		go func() {
			for j := 0; j < per; j++ {
				m := mach.GetMessage()
				m.ID = 1
				m.RemotePort = name
				if err := sender.Send(m, mach.SendOptions{}); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
	}
	for i := 0; i < total; i++ {
		m, err := receiver.Receive(svc, mach.ReceiveOptions{Timeout: 30 * time.Second})
		if err != nil {
			return 0, err
		}
		m.Release()
	}
	for i := 0; i < procs; i++ {
		if err := <-errc; err != nil {
			return 0, err
		}
	}
	return total, nil
}

// mcoreRPC: procs clients call one echo service backed by procs workers.
func mcoreRPC(procs, msgs int) (int, error) {
	k := mach.NewKernel(mach.Config{Frames: 256, PageSize: 4096})
	defer k.Shutdown()
	server := k.NewTask()
	srv, err := mach.NewRPCServer(server.Space)
	if err != nil {
		return 0, err
	}
	srv.Handle(mcoreEcho, mcoreEchoHandler)
	go srv.Loop.Run(procs)
	defer srv.Stop()
	return mcoreCallers(k, server, []*mach.RPCServer{srv}, procs, msgs)
}

// mcorePortSet: procs clients spread over three services demuxed by one
// loop with one receiver.
func mcorePortSet(procs, msgs int) (int, error) {
	k := mach.NewKernel(mach.Config{Frames: 256, PageSize: 4096})
	defer k.Shutdown()
	server := k.NewTask()
	srvs := make([]*mach.RPCServer, 3)
	for i := range srvs {
		srv, err := mach.NewRPCServer(server.Space)
		if err != nil {
			return 0, err
		}
		srv.Handle(mcoreEcho, mcoreEchoHandler)
		srvs[i] = srv
		if err := srvs[0].Loop.Serve(srv.Port, srv.Serve); err != nil {
			return 0, err
		}
	}
	go srvs[0].Run()
	defer func() {
		for _, srv := range srvs {
			srv.Stop()
		}
	}()
	return mcoreCallers(k, server, srvs, procs, msgs)
}

func mcoreEchoHandler(m *mach.Message, d *mach.Dec) (*mach.RPCReply, error) {
	v := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	r := mach.NewRPCReply()
	r.U64(v)
	return r, nil
}

// mcoreCallers drives per-client pooled call loops round-robined over
// the given services and waits for all of them.
func mcoreCallers(k *mach.Kernel, server *mach.Task, srvs []*mach.RPCServer, procs, msgs int) (int, error) {
	per := msgs / procs
	if per == 0 {
		per = 1
	}
	errc := make(chan error, procs)
	for c := 0; c < procs; c++ {
		go func(c int) {
			task := k.NewTask()
			svc, err := server.Space.CopySendRight(task.Space, srvs[c%len(srvs)].Port)
			if err != nil {
				errc <- err
				return
			}
			client := mach.NewRPCClient(task.Space, svc, 30*time.Second)
			req := mach.NewEnc()
			for j := 0; j < per; j++ {
				resp, err := client.Call(mcoreEcho, req.Reset().U64(uint64(j)))
				if err != nil {
					errc <- err
					return
				}
				if resp.Dec.U64() != uint64(j) {
					resp.Release()
					errc <- fmt.Errorf("wrong echo")
					return
				}
				resp.Release()
			}
			errc <- nil
		}(c)
	}
	for i := 0; i < procs; i++ {
		if err := <-errc; err != nil {
			return 0, err
		}
	}
	return per * procs, nil
}
