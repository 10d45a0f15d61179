package stats

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
)

// fusedOp matches a fused multiply-add in `-gcflags=-S` output attributed
// to a line of one of the checked files.
var fusedOp = regexp.MustCompile(`/(latency|runner|rng|zipf|pidctl|serve|tpch)\.go:\d+\)\s+(FMADD|FMSUB|FNMADD|FNMSUB)\S*`)

// TestNoFusedMultiplyAdd cross-compiles the percentile kernel, the
// experiment series helpers, the simulation RNG, the Zipfian key
// generator, MG-LRU's tier PID controller and the pagecache-serve and
// TPC-H workloads for arm64, where the compiler may fuse x*y+z into one
// instruction that rounds once. A fused site rounds differently from
// amd64, which never fuses, so a figure would differ by architecture.
// The explicit float64 conversions prevent fusing; this fails if one
// goes missing. It only compiles, from GOROOT, and runs nothing on
// arm64.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: cross-compiles seven packages")
	}
	gotool := filepath.Join(runtime.GOROOT(), "bin", "go")
	cmd := exec.Command(gotool, "build", "-gcflags=-S", "mglrusim/internal/stats", "mglrusim/internal/experiments",
		"mglrusim/internal/sim", "mglrusim/internal/workload", "mglrusim/internal/pidctl",
		"mglrusim/internal/workload/serve", "mglrusim/internal/workload/tpch")
	cmd.Env = append(cmd.Environ(), "GOARCH=arm64", "GOOS=linux", "CGO_ENABLED=0", "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arm64 build: %v\n%s", err, out)
	}
	for _, file := range []string{"latency.go", "runner.go", "rng.go", "zipf.go", "pidctl.go", "serve.go", "tpch.go"} {
		if !regexp.MustCompile(`/` + regexp.QuoteMeta(file) + `:\d+\)`).Match(out) {
			t.Fatalf("the build printed no assembly for %s; nothing was checked", file)
		}
	}
	for _, m := range fusedOp.FindAll(out, -1) {
		t.Errorf("fused multiply-add: %s", m)
	}
}
