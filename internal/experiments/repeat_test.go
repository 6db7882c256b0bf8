package experiments

import (
	"strings"
	"testing"
)

// TestTablesRepeat renders E6 and E11 fifty times each; every rendering
// must equal the first. E6's pre-page rows read the virtual clock only
// after the destination kernel has applied every pre-paged page; E11's
// footer holds device counts only.
func TestTablesRepeat(t *testing.T) {
	for _, e := range []struct {
		id  string
		run func() Table
	}{{"E6", E6Migration}, {"E11", E11DurableIO}} {
		var first string
		for i := 0; i < 50; i++ {
			var b strings.Builder
			tb := e.run()
			tb.Render(&b)
			if i == 0 {
				first = b.String()
			} else if got := b.String(); got != first {
				t.Fatalf("%s rendering %d differs from the first:\n%s\nfirst:\n%s", e.id, i, got, first)
			}
		}
	}
}
