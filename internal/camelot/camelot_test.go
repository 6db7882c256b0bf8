package camelot

import (
	"bytes"
	"testing"

	"time"

	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/rpc"
)

const pgsz = 256

func newCamelot(t *testing.T, frames int) (*kern.Kernel, *DiskManager, *Client) {
	t.Helper()
	k := kern.NewKernel(kern.Config{Frames: frames, PageSize: pgsz})
	t.Cleanup(k.Shutdown)
	dataDisk := machine.NewDisk(1024, pgsz, machine.DefaultDiskLatency, k.Clock())
	logDisk := machine.NewDisk(4096, pgsz, machine.DefaultDiskLatency, k.Clock())
	dm, err := NewDiskManager(k, dataDisk, logDisk)
	if err != nil {
		t.Fatal(err)
	}
	go dm.Run()
	t.Cleanup(dm.Stop)
	app := k.NewTask()
	svc, err := dm.Publish(app)
	if err != nil {
		t.Fatal(err)
	}
	return k, dm, Open(app, svc)
}

func TestCommitVisibleInMemory(t *testing.T) {
	_, _, c := newCamelot(t, 256)
	if err := c.CreateSegment("accts", 4*pgsz); err != nil {
		t.Fatal(err)
	}
	seg, err := c.Attach("accts")
	if err != nil {
		t.Fatal(err)
	}
	tx := c.Begin()
	if err := tx.Write(seg, 0, []byte("balance=100")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err := seg.Read(0, 11)
	if err != nil || string(got) != "balance=100" {
		t.Fatalf("read %q %v", got, err)
	}
}

func TestAbortRollsBackMemory(t *testing.T) {
	_, dm, c := newCamelot(t, 256)
	c.CreateSegment("s", pgsz)
	seg, _ := c.Attach("s")
	tx1 := c.Begin()
	tx1.Write(seg, 0, []byte("AAAA"))
	tx1.Commit()

	tx2 := c.Begin()
	tx2.Write(seg, 0, []byte("BBBB"))
	tx2.Write(seg, 8, []byte("CCCC"))
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	got, _ := seg.Read(0, 4)
	if string(got) != "AAAA" {
		t.Fatalf("after abort %q", got)
	}
	got, _ = seg.Read(8, 4)
	if !bytes.Equal(got, make([]byte, 4)) {
		t.Fatalf("aborted second write survives: %v", got)
	}
	st := dm.Stats()
	if st.Commits != 1 || st.Aborts != 1 {
		t.Fatalf("outcomes %+v", st)
	}
}

func TestCommitSurvivesCrash(t *testing.T) {
	_, dm, c := newCamelot(t, 256)
	c.CreateSegment("data", 2*pgsz)
	seg, _ := c.Attach("data")
	tx := c.Begin()
	tx.Write(seg, 10, []byte("durable!"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Crash BEFORE the dirty page was ever written to the data disk.
	dm.Crash()
	if n := dm.Recover(); n == 0 {
		t.Fatal("recovery replayed nothing")
	}
	data, err := dm.SegmentBytes("data")
	if err != nil {
		t.Fatal(err)
	}
	if string(data[10:18]) != "durable!" {
		t.Fatalf("committed data lost: %q", data[10:18])
	}
}

func TestUncommittedRolledBackAtRecovery(t *testing.T) {
	_, dm, c := newCamelot(t, 256)
	c.CreateSegment("mix", pgsz)
	seg, _ := c.Attach("mix")
	// Committed baseline.
	tx1 := c.Begin()
	tx1.Write(seg, 0, []byte("GOOD"))
	tx1.Commit()
	// In-flight transaction: updates logged (and FORCED by the WAL
	// check when we flush the page below), but never committed.
	tx2 := c.Begin()
	tx2.Write(seg, 0, []byte("EVIL"))
	// Force the dirty page to disk through the pager: the manager must
	// force the log first (WAL), making tx2's undo information durable.
	dm.mu.Lock()
	mo := dm.segments["mix"].mo
	dm.mu.Unlock()
	if err := mo.FlushRequest(0, pgsz); err != nil {
		t.Fatal(err)
	}
	// Wait until the page write reached the manager.
	deadline := time.Now().Add(2 * time.Second)
	for dm.Stats().PageWrites == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := dm.Stats()
	if st.PageWrites == 0 {
		t.Fatal("flush write never arrived")
	}
	if st.WALForces == 0 {
		t.Fatal("WAL force did not happen before page write")
	}
	dm.Crash()
	dm.Recover()
	data, _ := dm.SegmentBytes("mix")
	if string(data[:4]) != "GOOD" {
		t.Fatalf("recovery produced %q, want GOOD (tx2 undone)", data[:4])
	}
}

func TestWALOrderingUnderEviction(t *testing.T) {
	// Tiny kernel memory: recoverable pages get evicted mid-
	// transaction. Every page write must be preceded by a log force.
	_, dm, c := newCamelot(t, 16)
	c.CreateSegment("big", 32*pgsz)
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
		t.Fatal("no evictions despite pressure")
	}
	// Committed data recoverable even though pages were written
	// piecemeal during the transaction.
	dm.Crash()
	dm.Recover()
	data, _ := dm.SegmentBytes("big")
	for i := 0; i < 32; i++ {
		if data[i*pgsz] != byte(i+1) {
			t.Fatalf("page %d lost after eviction+crash: %d", i, data[i*pgsz])
		}
	}
}

func TestMultipleTransactionsInterleaved(t *testing.T) {
	_, dm, c := newCamelot(t, 256)
	c.CreateSegment("t", pgsz)
	seg, _ := c.Attach("t")
	txA := c.Begin()
	txB := c.Begin()
	txA.Write(seg, 0, []byte{1})
	txB.Write(seg, 16, []byte{2})
	txA.Write(seg, 32, []byte{3})
	txA.Commit()
	// txB never commits.
	dm.Crash()
	dm.Recover()
	data, _ := dm.SegmentBytes("t")
	if data[0] != 1 || data[32] != 3 {
		t.Fatalf("committed txA lost: %v %v", data[0], data[32])
	}
	if data[16] != 0 {
		t.Fatalf("uncommitted txB survived: %v", data[16])
	}
}

func TestRecoveryIdempotent(t *testing.T) {
	_, dm, c := newCamelot(t, 256)
	c.CreateSegment("i", pgsz)
	seg, _ := c.Attach("i")
	tx := c.Begin()
	tx.Write(seg, 0, []byte("X"))
	tx.Commit()
	dm.Crash()
	dm.Recover()
	first, _ := dm.SegmentBytes("i")
	dm.Recover()
	second, _ := dm.SegmentBytes("i")
	if !bytes.Equal(first, second) {
		t.Fatal("recovery not idempotent")
	}
}

// encodeRecord encodes one record into a log block: a run of one.
func encodeRecord(r *record, blockSize int) []byte {
	return encodeRun([]record{*r}, blockSize, new(rpc.Enc))
}

func TestLogRecordCodecRoundTrip(t *testing.T) {
	r := record{lsn: 42, tx: 7, kind: recUpdate, seg: 3, offset: 1000,
		old: []byte("before"), new: []byte("afterward")}
	b := encodeRecord(&r, 256)
	got, ok := decodeRecord(b)
	if !ok {
		t.Fatal("decode failed")
	}
	if got.lsn != 42 || got.tx != 7 || got.kind != recUpdate || got.seg != 3 ||
		got.offset != 1000 || string(got.old) != "before" || string(got.new) != "afterward" {
		t.Fatalf("round trip %+v", got)
	}
	if _, ok := decodeRecord(make([]byte, 256)); ok {
		t.Fatal("zero block decoded as record")
	}
}

func TestSegmentNotFound(t *testing.T) {
	_, _, c := newCamelot(t, 128)
	if _, err := c.Attach("ghost"); err != ErrNoSegment {
		t.Fatalf("attach ghost: %v", err)
	}
}
