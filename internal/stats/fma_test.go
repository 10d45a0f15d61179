package stats

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
)

// fusedOp matches a fused multiply-add in `-gcflags=-S` output attributed
// to a line of any file of the packages built. The mnemonics are those of
// arm64 and riscv64 (FMADDD, FNMSUBD, ...), ppc64le (FMADD, FNMSUB, ...)
// and s390x (FMADD, FMSUB).
var fusedOp = regexp.MustCompile(`\w+\.go:\d+\)\s+(FMADD|FMSUB|FNMADD|FNMSUB)\S*`)

// fmaPackages are the packages TestNoFusedMultiplyAdd builds, and
// fmaFiles files of theirs whose assembly must be in the output.
var (
	fmaPackages = []string{"mglrusim/internal/stats", "mglrusim/internal/experiments",
		"mglrusim/internal/sim", "mglrusim/internal/workload", "mglrusim/internal/pidctl",
		"mglrusim/internal/workload/serve", "mglrusim/internal/workload/tpch",
		"mglrusim/internal/policy/mglru", "mglrusim/internal/vmm", "mglrusim/internal/swap"}
	fmaFiles = []string{"stats.go", "latency.go", "runner.go", "rng.go", "zipf.go", "pidctl.go",
		"serve.go", "tpch.go", "mglru.go", "vmm.go", "swap.go"}
)

// TestNoFusedMultiplyAdd cross-compiles the statistics and percentile
// kernels, the experiment series helpers, the simulation RNG, the Zipfian
// key generator, MG-LRU and its tier PID controller, the memory manager,
// the swap devices and the pagecache-serve and TPC-H workloads for each
// architecture where the compiler may fuse x*y+z into one instruction
// that rounds once. A fused site rounds differently from amd64, which
// never fuses, so a figure would differ by architecture. The explicit
// float64 conversions prevent fusing; this fails if one goes missing. It
// only compiles, from GOROOT, and runs nothing on those architectures.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: cross-compiles ten packages for four architectures")
	}
	gotool := filepath.Join(runtime.GOROOT(), "bin", "go")
	for _, arch := range []string{"arm64", "ppc64le", "s390x", "riscv64"} {
		t.Run(arch, func(t *testing.T) {
			cmd := exec.Command(gotool, append([]string{"build", "-gcflags=-S"}, fmaPackages...)...)
			cmd.Env = append(cmd.Environ(), "GOARCH="+arch, "GOOS=linux", "CGO_ENABLED=0", "GOFLAGS=")
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%s build: %v\n%s", arch, err, out)
			}
			for _, file := range fmaFiles {
				if !regexp.MustCompile(`/` + regexp.QuoteMeta(file) + `:\d+\)`).Match(out) {
					t.Fatalf("the build printed no assembly for %s; nothing was checked", file)
				}
			}
			for _, m := range fusedOp.FindAll(out, -1) {
				t.Errorf("fused multiply-add: %s", m)
			}
		})
	}
}
