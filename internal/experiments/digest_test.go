package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// figureMatrixDigest is the SHA-256 of `pagebench -figure all -trials 2
// -scale 0.2` output: every paper figure's Render() plus the newline
// pagebench prints after it. The benchmark module pins the same digest
// for its paper-matrix workload.
const figureMatrixDigest = "6312cf4915e21879447490947392b22a584a9d29571385ede16bf86f981804f7"

// TestFigureMatrixDigest pins the bytes of all twelve paper figures at
// the golden-test parameters. TestGoldenFigures shows a readable diff for
// figs 1–2; this catches a drift anywhere in the matrix. If a change is
// meant to move figures, say so and update the digest (and the
// benchmark's pinned copy) in the same change.
func TestFigureMatrixDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: renders the full figure matrix")
	}
	r := NewRunner(Options{Trials: 2, Scale: 0.2, Seed: 0x5EED, Parallelism: 2})
	h := sha256.New()
	for _, id := range FigureIDs() {
		res, err := Figures[id](r)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		h.Write([]byte(res.Render() + "\n"))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != figureMatrixDigest {
		t.Fatalf("figure matrix digest = %s, want %s", got, figureMatrixDigest)
	}
}
