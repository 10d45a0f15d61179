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

// extensionDigest is the SHA-256 of `pagebench -figure ext1,ext2,ext3
// -trials 2 -scale 0.2`: each extension figure's Render() plus a newline.
const extensionDigest = "eb843329200927f7f0a88a0418e43e43a868741a2a0bc5d6c8fc9e06cf7c4e3c"

// TestExtensionDigest pins the bytes of the three extension figures.
// ext1 is the only figure that injects swap-targeted device faults, and
// ext3 the only one that degrades the file backing device, so this is
// the byte gate for both consumers of the fault plane.
func TestExtensionDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: renders the extension figures")
	}
	r := NewRunner(Options{Trials: 2, Scale: 0.2, Seed: 0x5EED, Parallelism: 2})
	h := sha256.New()
	for _, id := range ExtensionIDs() {
		res, err := Extensions[id](r)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		h.Write([]byte(res.Render() + "\n"))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != extensionDigest {
		t.Fatalf("extension digest = %s, want %s", got, extensionDigest)
	}
}
