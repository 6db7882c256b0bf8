package camelot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/iomgr"
	"repro/internal/kern"
	"repro/internal/pager"
	"repro/internal/rpc"
)

// newDurable boots a kernel plus a durable disk manager over dir.
func newDurable(t testing.TB, dir string, o DurableOptions) (*kern.Kernel, *DiskManager, *Client) {
	t.Helper()
	k := kern.NewKernel(kern.Config{Frames: 256, PageSize: pgsz})
	dm, err := NewDurableDiskManager(k, dir, o)
	if err != nil {
		t.Fatal(err)
	}
	go dm.Run()
	app := k.NewTask()
	svc, err := dm.Publish(app)
	if err != nil {
		t.Fatal(err)
	}
	return k, dm, Open(app, svc)
}

// TestDurableReopenAfterCrash is the acceptance scenario: transactions
// against a real-file volume, a crash that loses every cached page and
// all volatile manager state (the process's view dies with dm.Close),
// then a REOPEN from the directory by a brand-new kernel and manager.
// Committed transactions are exactly recovered; an uncommitted
// transaction whose dirty page had already reached the data file is
// rolled back.
func TestDurableReopenAfterCrash(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{DataBlocks: 64, LogBlocks: 256, LogBlockSize: pgsz}
	_, dm1, c1 := newDurable(t, dir, opts)

	if err := c1.CreateSegment("acct", 4*pgsz); err != nil {
		t.Fatal(err)
	}
	seg, err := c1.Attach("acct")
	if err != nil {
		t.Fatal(err)
	}
	// Committed state: must survive the crash.
	tx1 := c1.Begin()
	if err := tx1.Write(seg, 0, []byte("GOOD")); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Write(seg, pgsz+8, []byte("KEEP")); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	st := dm1.wal.Stats()
	if st.Fsyncs == 0 || st.Durable == 0 {
		t.Fatalf("commit did not fsync the log: %+v", st)
	}
	// Uncommitted overwrite of the committed bytes, flushed to the data
	// FILE mid-transaction (the WAL force makes its undo durable) —
	// recovery must roll it back on the real disk image.
	tx2 := c1.Begin()
	if err := tx2.Write(seg, 0, []byte("EVIL")); err != nil {
		t.Fatal(err)
	}
	dm1.mu.Lock()
	mo := dm1.segments["acct"].mo
	dm1.mu.Unlock()
	if err := mo.FlushRequest(0, pgsz); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for dm1.Stats().PageWrites == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if dm1.Stats().PageWrites == 0 {
		t.Fatal("flush write never reached the data file")
	}

	// Crash: close the files without any flush or checkpoint. The
	// kernel's cached pages and the manager's volatile state are gone.
	if err := dm1.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from the directory with a fresh kernel: catalog rebuilds
	// the segment table, the log scan finds the durable tail, replay
	// repeats history and rolls the loser back.
	k2, dm2, c2 := newDurable(t, dir, opts)
	defer dm2.Close()
	defer k2.Shutdown()
	data, err := dm2.SegmentBytes("acct")
	if err != nil {
		t.Fatal(err)
	}
	if string(data[0:4]) != "GOOD" {
		t.Fatalf("recovered %q, want GOOD (tx2 rolled back, tx1 kept)", data[0:4])
	}
	if string(data[pgsz+8:pgsz+12]) != "KEEP" {
		t.Fatalf("second committed page lost: %q", data[pgsz+8:pgsz+12])
	}
	// The recovered segment is live: attach and read through the pager,
	// then run a fresh transaction against it.
	seg2, err := c2.Attach("acct")
	if err != nil {
		t.Fatal(err)
	}
	got, err := seg2.Read(0, 4)
	if err != nil || string(got) != "GOOD" {
		t.Fatalf("mapped read after recovery: %q %v", got, err)
	}
	tx := c2.Begin()
	if err := tx.Write(seg2, 2*pgsz, []byte("MORE")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCommitFailsWhenLogDies: a log-device write failure at
// commit time surfaces to the client as a failed commit, and after
// reopening the volume the transaction is NOT recovered — the reply
// and the disk agree.
func TestDurableCommitFailsWhenLogDies(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{DataBlocks: 64, LogBlocks: 256, LogBlockSize: pgsz}
	_, dm1, c1 := newDurable(t, dir, opts)

	if err := c1.CreateSegment("s", 2*pgsz); err != nil {
		t.Fatal(err)
	}
	seg, err := c1.Attach("s")
	if err != nil {
		t.Fatal(err)
	}
	tx1 := c1.Begin()
	tx1.Write(seg, 0, []byte("SAFE"))
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	// Kill the next log write: tx2's records — its update and its
	// commit, written as one run at commit — never reach the file, so
	// its commit cannot be made durable.
	dm1.wal.File().InjectFault(iomgr.OpWrite, 0, errors.New("injected: log device died"))
	tx2 := c1.Begin()
	if err := tx2.Write(seg, 8, []byte("LOST")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err == nil {
		t.Fatal("commit succeeded although the log device failed")
	}
	if err := dm1.Close(); err != nil {
		t.Fatal(err)
	}

	k2, dm2, _ := newDurable(t, dir, opts)
	defer dm2.Close()
	defer k2.Shutdown()
	data, err := dm2.SegmentBytes("s")
	if err != nil {
		t.Fatal(err)
	}
	if string(data[0:4]) != "SAFE" {
		t.Fatalf("committed tx1 lost: %q", data[0:4])
	}
	for i := 8; i < 12; i++ {
		if data[i] != 0 {
			t.Fatalf("failed commit's data recovered anyway: %q", data[8:12])
		}
	}
}

// TestDurableCommitFailsWhenFsyncFails is the variant where the log
// write lands but its fsync fails. The commit fails, and the log stays
// dead: a later commit fails too rather than being acknowledged behind
// a record of unknown fate. The failed transaction's records did reach
// the file, so recovery may find them — its outcome is in doubt, as
// after any failed fsync — but it is atomic either way, and the commit
// acknowledged before the failure survives.
func TestDurableCommitFailsWhenFsyncFails(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{DataBlocks: 64, LogBlocks: 256, LogBlockSize: pgsz}
	k1, dm1, c1 := newDurable(t, dir, opts)
	defer k1.Shutdown()

	if err := c1.CreateSegment("s", 2*pgsz); err != nil {
		t.Fatal(err)
	}
	seg, err := c1.Attach("s")
	if err != nil {
		t.Fatal(err)
	}
	tx1 := c1.Begin()
	if err := tx1.Write(seg, 0, []byte("SAFE")); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	dm1.wal.File().InjectFault(iomgr.OpFsync, 0, errors.New("injected: fsync failed"))
	tx2 := c1.Begin()
	if err := tx2.Write(seg, 8, []byte("LOST")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Write(seg, pgsz+8, []byte("GONE")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err == nil {
		t.Fatal("commit succeeded although its fsync failed")
	}
	dm1.wal.File().InjectFault(iomgr.OpFsync, 0, nil)
	tx3 := c1.Begin()
	if err := tx3.Write(seg, 16, []byte("LATE")); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err == nil {
		t.Fatal("commit acknowledged on a log whose fsync failed")
	}
	if got := dm1.Stats().Commits; got != 1 {
		t.Fatalf("Stats.Commits = %d, want 1 (failed commits uncounted)", got)
	}
	if err := dm1.Close(); err != nil {
		t.Fatal(err)
	}

	k2, dm2, _ := newDurable(t, dir, opts)
	defer dm2.Close()
	defer k2.Shutdown()
	data, err := dm2.SegmentBytes("s")
	if err != nil {
		t.Fatal(err)
	}
	if string(data[0:4]) != "SAFE" {
		t.Fatalf("committed tx1 lost: %q", data[0:4])
	}
	first, second := string(data[8:12]), string(data[pgsz+8:pgsz+12])
	if (first == "LOST") != (second == "GONE") {
		t.Fatalf("tx2 recovered torn: %q / %q", first, second)
	}
}

// holdFsync holds the completion of the log's next fsync: held closes
// once the fsync has run, and its waiter is released by release.
func holdFsync(dm *DiskManager) (held <-chan struct{}, release func()) {
	h, r := make(chan struct{}), make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	dm.wal.File().SetObserver(func(op *iomgr.Op) {
		if op.Kind == iomgr.OpFsync && armed.CompareAndSwap(true, false) {
			close(h)
			<-r
		}
	})
	return h, sync.OnceFunc(func() { close(r) })
}

// TestDurableCommitOverlapsHeldFsync: the log force is off the service
// loop. While client A's commit waits on its fsync, client B's LogAppend
// is served and A's Commit has not returned; once the fsync completes,
// both commits are acknowledged and both survive a reopen.
func TestDurableCommitOverlapsHeldFsync(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{DataBlocks: 64, LogBlocks: 256, LogBlockSize: pgsz}
	k, dm, a := newDurable(t, dir, opts)
	defer k.Shutdown()
	if err := a.CreateSegment("s", pgsz); err != nil {
		t.Fatal(err)
	}
	segA, err := a.Attach("s")
	if err != nil {
		t.Fatal(err)
	}
	taskB := k.NewTask()
	svc, err := dm.Publish(taskB)
	if err != nil {
		t.Fatal(err)
	}
	b := Open(taskB, svc)
	segB, err := b.Attach("s")
	if err != nil {
		t.Fatal(err)
	}

	held, release := holdFsync(dm)
	defer release()
	txA := a.Begin()
	if err := txA.Write(segA, 0, []byte("AAAA")); err != nil {
		t.Fatal(err)
	}
	commitA := make(chan error, 1)
	go func() { commitA <- txA.Commit() }()
	<-held

	txB := b.Begin()
	if err := txB.Write(segB, 16, []byte("BBBB")); err != nil {
		t.Fatalf("B's LogAppend while A's fsync is held: %v", err)
	}
	select {
	case err := <-commitA:
		t.Fatalf("A's commit returned (%v) while its fsync was held", err)
	default:
	}
	commitB := make(chan error, 1)
	go func() { commitB <- txB.Commit() }()
	release()
	if err := <-commitA; err != nil {
		t.Fatal(err)
	}
	if err := <-commitB; err != nil {
		t.Fatal(err)
	}
	if err := dm.Close(); err != nil {
		t.Fatal(err)
	}

	k2, dm2, _ := newDurable(t, dir, opts)
	defer dm2.Close()
	defer k2.Shutdown()
	data, err := dm2.SegmentBytes("s")
	if err != nil {
		t.Fatal(err)
	}
	if string(data[0:4]) != "AAAA" || string(data[16:20]) != "BBBB" {
		t.Fatalf("recovered %q and %q, want AAAA and BBBB", data[0:4], data[16:20])
	}
}

// TestDurableCloseAnswersHeldCommit: Close while a commit waits on its
// fsync. Close stops the service loop, then waits for the committer, so
// the commit is answered from its completed force — not failed by a log
// closed under it — and the reopened disk agrees with the answer. After
// Close the committer has exited.
func TestDurableCloseAnswersHeldCommit(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{DataBlocks: 64, LogBlocks: 256, LogBlockSize: pgsz}
	k, dm, c := newDurable(t, dir, opts)
	defer k.Shutdown()
	if err := c.CreateSegment("s", pgsz); err != nil {
		t.Fatal(err)
	}
	seg, err := c.Attach("s")
	if err != nil {
		t.Fatal(err)
	}

	held, release := holdFsync(dm)
	defer release()
	tx := c.Begin()
	if err := tx.Write(seg, 0, []byte("HELD")); err != nil {
		t.Fatal(err)
	}
	commit := make(chan error, 1)
	go func() { commit <- tx.Commit() }()
	<-held
	closed := make(chan error, 1)
	go func() { closed <- dm.Close() }()
	// Close marks the manager closing once its service loop has
	// returned; it then waits for the committer.
	for closing := false; !closing; time.Sleep(time.Millisecond) {
		dm.mu.Lock()
		closing = dm.closing
		dm.mu.Unlock()
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a commit was held in fsync", err)
	default:
	}
	release()
	if err := <-commit; err != nil {
		t.Fatalf("held commit answered %v although its fsync completed", err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	select {
	case <-dm.committerDone:
	default:
		t.Fatal("committer still running after Close")
	}

	k2, dm2, _ := newDurable(t, dir, opts)
	defer dm2.Close()
	defer k2.Shutdown()
	data, err := dm2.SegmentBytes("s")
	if err != nil {
		t.Fatal(err)
	}
	if string(data[0:4]) != "HELD" {
		t.Fatalf("acknowledged commit not recovered: %q", data[0:4])
	}
}

// TestDurableBatchedCommit: a LogAppend and a TxCommit pipelined in one
// rpc.Batch. The batched commit cannot defer its reply, so it forces the
// log inline and answers inside the container reply — durably: the
// update is recovered after a reopen.
func TestDurableBatchedCommit(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{DataBlocks: 64, LogBlocks: 256, LogBlockSize: pgsz}
	k, dm, c := newDurable(t, dir, opts)
	defer k.Shutdown()
	if err := c.CreateSegment("s", pgsz); err != nil {
		t.Fatal(err)
	}
	seg, err := c.Attach("s")
	if err != nil {
		t.Fatal(err)
	}
	tx := txIDs.Add(1)
	b := c.c.RPC().NewBatch()
	appendCall := c.c.LogAppendBatch(b, &LogAppendRequest{Tx: tx, Seg: seg.ID, Offset: 4, Old: make([]byte, 5), New: []byte("BATCH")})
	commitCall := c.c.TxCommitBatch(b, &TxCommitRequest{Tx: tx})
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if st, err := appendCall.Result(); err != nil || st != rpc.StatusOK {
		t.Fatalf("batched LogAppend: %v %v", st, err)
	}
	if st, err := commitCall.Result(); err != nil || st != rpc.StatusOK {
		t.Fatalf("batched TxCommit: %v %v", st, err)
	}
	if err := dm.Close(); err != nil {
		t.Fatal(err)
	}

	k2, dm2, _ := newDurable(t, dir, opts)
	defer dm2.Close()
	defer k2.Shutdown()
	data, err := dm2.SegmentBytes("s")
	if err != nil {
		t.Fatal(err)
	}
	if string(data[4:9]) != "BATCH" {
		t.Fatalf("batched commit not recovered: %q", data[4:9])
	}
}

// parentSlot lays out one log record exactly as the format has always
// stored it, written out independently of log.go: magic 0xC4, kind
// (1 update, 2 commit, 3 abort), lsn, tx, seg, offset, then old and new
// each behind a u32 length — all little-endian — zero-padded to the
// slot.
func parentSlot(bs int, kind byte, lsn, tx uint64, seg uint32, off uint64, old, new []byte) []byte {
	b := append(make([]byte, 0, bs), 0xC4, kind)
	b = binary.LittleEndian.AppendUint64(b, lsn)
	b = binary.LittleEndian.AppendUint64(b, tx)
	b = binary.LittleEndian.AppendUint32(b, seg)
	b = binary.LittleEndian.AppendUint64(b, off)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(old)))
	b = append(b, old...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(new)))
	b = append(b, new...)
	return append(b, make([]byte, bs-len(b))...)
}

// TestDurableParentFormatLog: a log laid out slot by slot in the
// record-per-write format reopens and recovers byte-identically — one
// write per run changed how records reach the file, not what the file
// holds — and every slot the run writer adds afterwards is exactly that
// layout.
func TestDurableParentFormatLog(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{DataBlocks: 64, LogBlocks: 256, LogBlockSize: pgsz}
	k1, dm1, c1 := newDurable(t, dir, opts)
	defer k1.Shutdown()
	if err := c1.CreateSegment("s", 2*pgsz); err != nil {
		t.Fatal(err)
	}
	dm1.mu.Lock()
	id := dm1.segments["s"].id
	dm1.mu.Unlock()
	if err := dm1.Close(); err != nil {
		t.Fatal(err)
	}

	// tx 1 commits, tx 2 is a loser, tx 3 commits across a page edge.
	var log []byte
	for _, s := range [][]byte{
		parentSlot(pgsz, 1, 1, 1, id, 0, make([]byte, 4), []byte("PREV")),
		parentSlot(pgsz, 1, 2, 2, id, 8, make([]byte, 4), []byte("LOSE")),
		parentSlot(pgsz, 2, 3, 1, id, 0, nil, nil),
		parentSlot(pgsz, 1, 4, 3, id, pgsz-2, make([]byte, 4), []byte("EDGE")),
		parentSlot(pgsz, 2, 5, 3, id, 0, nil, nil),
	} {
		log = append(log, s...)
	}
	walPath := filepath.Join(dir, "wal.log")
	if err := os.WriteFile(walPath, log, 0o644); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 2*pgsz)
	copy(want[0:], "PREV")
	copy(want[pgsz-2:], "EDGE")

	k2, dm2, c2 := newDurable(t, dir, opts)
	defer k2.Shutdown()
	got, err := dm2.SegmentBytes("s")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered segment differs from the log's committed state")
	}
	seg, err := c2.Attach("s")
	if err != nil {
		t.Fatal(err)
	}
	tx := c2.Begin()
	if err := tx.Write(seg, 32, []byte("NEW1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(seg, pgsz+32, []byte("NEW2")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := dm2.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 8*pgsz || !bytes.Equal(raw[:len(log)], log) {
		t.Fatalf("log is %d bytes, want the 5 old slots unchanged plus 3 new", len(raw))
	}
	newSlots := [][]byte{
		parentSlot(pgsz, 1, 6, tx.ID, id, 32, make([]byte, 4), []byte("NEW1")),
		parentSlot(pgsz, 1, 7, tx.ID, id, pgsz+32, make([]byte, 4), []byte("NEW2")),
		parentSlot(pgsz, 2, 8, tx.ID, 0, 0, nil, nil),
	}
	for i, s := range newSlots {
		if slot := raw[(5+i)*pgsz : (6+i)*pgsz]; !bytes.Equal(slot, s) {
			t.Fatalf("slot of LSN %d is not in the record-per-slot layout", 6+i)
		}
	}

	k3, dm3, _ := newDurable(t, dir, opts)
	defer dm3.Close()
	defer k3.Shutdown()
	copy(want[32:], "NEW1")
	copy(want[pgsz+32:], "NEW2")
	if got, err := dm3.SegmentBytes("s"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("second reopen: %v, or segment differs", err)
	}
}

// TestWALGroupCommitBatchesFsyncs: concurrent Force calls share fsyncs
// — one leader syncs for everybody, so Fsyncs ends strictly below
// Forces.
func TestWALGroupCommitBatchesFsyncs(t *testing.T) {
	w, err := OpenWAL(filepath.Join(t.TempDir(), "wal.log"), 256, 256, iomgr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const records = 96
	for lsn := uint64(1); lsn <= records; lsn++ {
		w.Append(lsn, encodeRecord(&record{lsn: lsn, tx: lsn, kind: recCommit}, 256))
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		lsn := uint64((i + 1) * (records / 8))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Force(lsn); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := w.Stats()
	if st.Durable < records {
		t.Fatalf("durable %d, want >= %d", st.Durable, records)
	}
	if st.Forces != 8 {
		t.Fatalf("forces %d, want 8", st.Forces)
	}
	if st.Fsyncs >= st.Forces {
		t.Fatalf("no group-commit batching: %d fsyncs for %d forces", st.Fsyncs, st.Forces)
	}
	// The scan sees every record (reopen path).
	if got := len(w.scan()); got != records {
		t.Fatalf("scan found %d records, want %d", got, records)
	}
}

// walGuard wraps the data store and asserts, on every page write, that
// the log is DURABLE (fsynced, not merely submitted) through the
// page's last LSN — the paper's pager_flush_request check, on the real
// fsync path.
type walGuard struct {
	pager.BlockStore
	t  *testing.T
	dm *DiskManager
}

func (g *walGuard) Write(block int, src []byte) {
	dm := g.dm
	if dm != nil {
		dm.mu.Lock()
		var lsn uint64
		for _, seg := range dm.bySegID {
			for pg, b := range seg.blocks {
				if b == block {
					if l := dm.pageLSN[pageKey(seg.id, uint64(pg))]; l > lsn {
						lsn = l
					}
				}
			}
		}
		dm.mu.Unlock()
		if d := dm.wal.Durable(); d < lsn {
			g.t.Errorf("block %d written with log durable only to %d, page LSN %d", block, d, lsn)
		}
	}
	g.BlockStore.Write(block, src)
}

// TestDurableWALPrecedesPageWrite evicts recoverable pages under
// memory pressure and checks the stable-storage ordering invariant for
// every single data-file write.
func TestDurableWALPrecedesPageWrite(t *testing.T) {
	dir := t.TempDir()
	k := kern.NewKernel(kern.Config{Frames: 16, PageSize: pgsz})
	defer k.Shutdown()
	vol, err := pager.OpenFileVolume(filepath.Join(dir, "data.vol"), 64, pgsz, iomgr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	guard := &walGuard{BlockStore: vol, t: t}
	wal, err := OpenWAL(filepath.Join(dir, "wal.log"), 1024, pgsz, iomgr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dm, err := newManager(k, guard, wal)
	if err != nil {
		t.Fatal(err)
	}
	guard.dm = dm
	go dm.Run()
	defer func() {
		dm.Stop()
		wal.Close()
		vol.Close()
	}()
	app := k.NewTask()
	svc, err := dm.Publish(app)
	if err != nil {
		t.Fatal(err)
	}
	c := Open(app, svc)
	if err := c.CreateSegment("big", 32*pgsz); err != nil {
		t.Fatal(err)
	}
	seg, err := c.Attach("big")
	if err != nil {
		t.Fatal(err)
	}
	tx := c.Begin()
	for i := 0; i < 32; i++ {
		if err := tx.Write(seg, uint64(i)*pgsz, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	st := dm.Stats()
	if st.PageWrites == 0 {
		t.Fatal("no page writes despite 2x memory pressure")
	}
	ws := wal.Stats()
	if ws.Fsyncs == 0 {
		t.Fatalf("page writes happened without a single fsync: %+v", ws)
	}
	t.Logf("pageWrites=%d walForces=%d wal=%+v", st.PageWrites, st.WALForces, ws)
}
