package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"mglrusim/internal/fault"
)

// traceDigests are the SHA-256s of `pagebench -figure FIGURES -trials 2
// -scale 0.2 -trace DIR -faults PRESET -retries 2`: each figure's Render()
// and then, in name order, the name and bytes of every trace, counter and
// flight file the run wrote. The pagecache case is the only one whose
// counters carry the page cache's gauges (shadows, evictions, refaults).
var traceDigests = []struct {
	name, preset string
	figures      []string
	digest       string
}{
	{"off", "off", []string{"fig1", "fig9"}, "62ed6ec0f6e13693109e087020c51a3ec902653b52aa0752e255bf2e48ddc142"},
	{"severe", "severe", []string{"fig1", "fig9"}, "85921c2e960956fa2db8fecf73b5716f3ab56d83951a2ffec5e56a322e965a49"},
	{"pagecache", "off", []string{"ext2", "ext3"}, "18612818b79f28d677ae273f2dbf9db6f83eadfdf44920a228827e7cc41df225"},
}

// TestTraceDigest pins the bytes of traced runs. A trace records every
// span and counter snapshot in virtual time, so it moves if the engine
// reorders a single event; the figure digests alone would miss an
// order change that leaves the aggregated metrics the same. The severe
// preset adds latency storms, stalls and retried read errors to the
// spans; a flight dump, if a trial wrote one, would be hashed too.
func TestTraceDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: traces fig1 and fig9 twice, and ext2 and ext3")
	}
	for _, tc := range traceDigests {
		t.Run(tc.name, func(t *testing.T) {
			plan, ok := fault.Preset(tc.preset)
			if !ok {
				t.Fatalf("unknown preset %q", tc.preset)
			}
			dir := t.TempDir()
			r := NewRunner(Options{Trials: 2, Scale: 0.2, Seed: 0x5EED, Parallelism: 2,
				TraceDir: dir, Fault: plan, Retries: 2})
			h := sha256.New()
			for _, id := range tc.figures {
				fig, ok := Figures[id]
				if !ok {
					fig = Extensions[id]
				}
				res, err := fig(r)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				io.WriteString(h, res.Render()+"\n")
			}
			n := hashDir(t, h, dir)
			if n == 0 {
				t.Fatal("traced run wrote no artifacts")
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
				t.Fatalf("trace digest (%d files) = %s, want %s", n, got, tc.digest)
			}
		})
	}
}

// hashDir streams the name and bytes of every file in dir, in name
// order, into h and returns the number of files. Traced figure runs
// write hundreds of megabytes, so files are not held in memory.
func hashDir(t *testing.T, h io.Writer, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		st, err := f.Stat()
		if err == nil {
			fmt.Fprintf(h, "%s %d\n", name, st.Size())
			_, err = io.Copy(h, f)
		}
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	return len(names)
}
