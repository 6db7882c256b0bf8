package kern_test

import (
	"bytes"
	"testing"

	"repro/internal/fs"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
)

// A 16-page file read through the filesystem's pager arrives in the
// frames its page-in request lent: the bytes are the file's, all 16 pages
// come in, and none of them is copied through a message.
func TestFSFileReadThroughGrant(t *testing.T) {
	const page, pages = 256, 16
	k := kern.NewKernel(kern.Config{Frames: 256, PageSize: page})
	t.Cleanup(k.Shutdown)
	srv, err := fs.NewServer(k, machine.NewDisk(4*pages, page, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Run()
	t.Cleanup(srv.Stop)
	content := make([]byte, pages*page)
	for i := range content {
		content[i] = byte(i*7 + i/page)
	}
	if err := srv.CreateFile("f", content); err != nil {
		t.Fatal(err)
	}
	client := k.NewTask()
	svc, err := srv.Publish(client)
	if err != nil {
		t.Fatal(err)
	}
	addr, size, err := fs.ReadFile(client, svc, "f")
	if err != nil {
		t.Fatal(err)
	}
	copied, pageins, lent0 := obs.VM().PageinBytesCopied.Load(), k.Statistics().Pageins, obs.VM().FramesLent.Load()
	got, err := client.VMRead(addr, size)
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("read %v; content matches: %v", err, bytes.Equal(got, content))
	}
	if n := k.Statistics().Pageins - pageins; n != pages {
		t.Fatalf("%d page-ins, want %d", n, pages)
	}
	if n := obs.VM().PageinBytesCopied.Load() - copied; n != 0 {
		t.Fatalf("%d page bytes copied through pager_data_provided", n)
	}
	if n := obs.VM().FramesLent.Load() - lent0; n != 0 {
		t.Fatalf("%d frames still lent", n)
	}
}
