package iomgr

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCloseWithSubmittersInFlight: Close runs while eight goroutines mix
// sync and async reads and writes of stamped blocks, each goroutine on
// blocks of its own. Every op either completes with the right bytes or
// fails with ErrClosed — never with the os package's error for a file
// already closed — and once a goroutine has seen ErrClosed it sees
// nothing else. Afterwards every submitted op has completed.
func TestCloseWithSubmittersInFlight(t *testing.T) {
	const (
		goroutines = 8
		blocks     = 8 // per goroutine
		bsize      = 512
		warmup     = 50 // ops per goroutine before Close
	)
	f := openTemp(t, Options{})
	var started, done sync.WaitGroup
	started.Add(goroutines)
	done.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer done.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			shadow := make([][]byte, blocks) // last stamp written per block
			stamp := byte(0)
			closed := false
			for i := 0; ; i++ {
				if i == warmup {
					started.Done()
				}
				blk := rng.Intn(blocks)
				off := int64(g*blocks+blk) * bsize
				var err error
				switch kind := rng.Intn(5); kind {
				case 0, 1: // write, sync or async
					stamp = stamp%254 + 1
					data := bytes.Repeat([]byte{stamp}, bsize)
					data[0] = byte(g)
					if kind == 0 {
						_, err = f.SyncWriteAt(data, off)
					} else {
						_, err = f.WriteAt(data, off).Await()
					}
					if err == nil {
						shadow[blk] = data
					}
				case 2, 3: // read, sync or async
					buf := make([]byte, bsize)
					if kind == 2 {
						_, err = f.SyncReadAt(buf, off)
					} else {
						_, err = f.ReadAt(buf, off).Await()
					}
					want := shadow[blk]
					if want == nil {
						want = make([]byte, bsize)
					}
					if err == nil && !bytes.Equal(buf, want) {
						t.Errorf("goroutine %d block %d: read %x.., want %x..", g, blk, buf[:2], want[:2])
						return
					}
				case 4:
					err = f.SyncFsync()
				}
				switch {
				case err == nil && closed:
					t.Errorf("goroutine %d: an op succeeded after one failed with ErrClosed", g)
					return
				case err == nil:
				case !errors.Is(err, ErrClosed):
					t.Errorf("goroutine %d: %v, want success or ErrClosed", g, err)
					return
				case closed && i >= warmup+100:
					return
				default:
					closed = true
				}
				if i < warmup {
					continue
				}
				if !closed && i > warmup+1e6 {
					t.Errorf("goroutine %d: no ErrClosed after Close", g)
					return
				}
			}
		}(g)
	}
	started.Wait()
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	done.Wait()
	st := f.Stats()
	if st.Submitted != st.Completed || st.Inflight != 0 {
		t.Fatalf("after Close: %+v", st)
	}
}

// TestCloseWaitsForSyncOp: Close does not return while a synchronous op
// admitted before it is still completing, and the op succeeds.
func TestCloseWaitsForSyncOp(t *testing.T) {
	f := openTemp(t, Options{})
	held, release := make(chan struct{}), make(chan struct{})
	f.SetObserver(func(op *Op) {
		if op.Kind == OpWrite {
			close(held)
			<-release
		}
	})
	wrote := make(chan error, 1)
	go func() {
		_, err := f.SyncWriteAt([]byte("held"), 0)
		wrote <- err
	}()
	<-held
	closed := make(chan error, 1)
	go func() { closed <- f.Close() }()
	// Close has begun once a new op fails with ErrClosed.
	buf := make([]byte, 4)
	for {
		if _, err := f.SyncReadAt(buf, 0); errors.Is(err, ErrClosed) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a sync write was held", err)
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	if err := <-wrote; err != nil {
		t.Fatalf("held write: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestInflightLimit: however many goroutines submit, sync and async
// together, at most queueDepth ops are admitted at once. An op holds its
// token until its observer returns, so an observer that blocks holds
// the file full.
func TestInflightLimit(t *testing.T) {
	f := openTemp(t, Options{})
	gate := make(chan struct{})
	f.SetObserver(func(*Op) { <-gate })
	var wg sync.WaitGroup
	const each = queueDepth
	buf := make([]byte, 64)
	for i := 0; i < each; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := f.SyncWriteAt(buf, 0); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := f.WriteAt(buf, 0).Await(); err != nil {
				t.Error(err)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.Stats().Submitted < queueDepth && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // give an over-admission time to show
	if st := f.Stats(); st.Submitted != queueDepth {
		t.Errorf("with %d submitters held: %+v, want %d admitted", 2*each, st, queueDepth)
	}
	close(gate)
	wg.Wait()
	if st := f.Stats(); st.Completed != 2*each || st.Inflight != 0 {
		t.Fatalf("after release: %+v", st)
	}
}

// iomgrGoroutines counts the goroutines other than the caller with a
// frame in this package.
func iomgrGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			count := 0
			for _, g := range strings.Split(string(buf[:n]), "\n\n")[1:] {
				if strings.Contains(g, "repro/internal/iomgr.") {
					count++
				}
			}
			return count
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestClosedFilesLeaveNoGoroutine opens and closes files in a loop and
// checks that no worker outlives its file: Close joins them. The count
// is retried for up to a second.
func TestClosedFilesLeaveNoGoroutine(t *testing.T) {
	before := iomgrGoroutines()
	path := filepath.Join(t.TempDir(), "f")
	for i := 0; i < 1000; i++ {
		f, err := Open(path, Options{Create: true})
		if err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			f.WriteAt([]byte{byte(i)}, 0) // Close completes it
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var left int
	for wait := time.Millisecond; wait < time.Second; wait *= 2 {
		if left = iomgrGoroutines() - before; left <= 0 {
			return
		}
		time.Sleep(wait)
	}
	t.Fatalf("%d goroutines outlived their files", left)
}
