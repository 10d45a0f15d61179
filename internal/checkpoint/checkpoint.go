// Package checkpoint is a small content-addressed blob store the
// experiment harness uses to persist completed series across crashes and
// SIGINT/SIGKILL. Each entry is one file named by the SHA-256 of its
// logical key, written atomically (tmp + rename) and durably (the temp
// file is fsynced before the rename and the parent directory after it),
// so a store is never observed half-written even across power loss: a
// killed run leaves either the complete previous state or the complete
// new state, and resume simply skips entries that are present and valid.
//
// The store doubles as the coordination substrate for the multi-process
// shard executor (internal/shard): an entry's existence is the "cell
// done" marker every worker agrees on, KeyHash is the shared naming
// scheme sidecar files (leases, poison records) derive from, and
// PutVerify turns at-least-once execution into exactly-once results by
// verifying that duplicate completions carry byte-identical payloads.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
)

// Store persists keyed blobs under one directory.
type Store struct {
	dir  string
	hook atomic.Pointer[FaultHook]
}

// SetHook installs (or, with nil, clears) a fault hook over the store's
// filesystem operations — the test seam the lease layer has in
// ClaimOptions.Hook. Safe to call while the store is shared across
// goroutines (stores are long-lived and passed between servers and
// executors).
func (s *Store) SetHook(hook FaultHook) {
	s.hook.Store(&hook)
}

func (s *Store) faults() FaultHook {
	if h := s.hook.Load(); h != nil {
		return *h
	}
	return nil
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: open %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// KeyHash maps a logical key — arbitrary length, arbitrary bytes — to the
// fixed-size filesystem-safe name the store files it under. It is
// exported because every sidecar that must agree on a cell's identity
// across processes (shard leases, poison records) derives its filename
// from the same hash.
func KeyHash(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, KeyHash(key)+".json")
}

// EntryPath reports the file a key's blob is (or would be) stored at.
func (s *Store) EntryPath(key string) string { return s.path(key) }

// Get returns the blob stored for key, or ok=false when absent or
// unreadable (an unreadable entry is indistinguishable from a missing one
// on purpose: resume re-executes and overwrites it).
func (s *Store) Get(key string) (data []byte, ok bool) {
	path := s.path(key)
	err := s.faults().do("store.read", path, func() error {
		var rerr error
		data, rerr = os.ReadFile(path)
		return rerr
	})
	if err != nil || len(data) == 0 {
		return nil, false
	}
	return data, true
}

// ValidHash reports whether h has the shape of a KeyHash output (64 hex
// characters) — the gate API layers apply before touching the filesystem
// with a caller-supplied entry name.
func ValidHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// GetHash returns the blob stored under an entry hash — the fixed-size
// name KeyHash files entries under, and the identity the serving layer
// exposes in result URLs. Hashes that do not look like KeyHash output are
// rejected outright (never turned into paths).
func (s *Store) GetHash(hash string) (data []byte, ok bool) {
	if !ValidHash(hash) {
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(s.dir, hash+".json"))
	if err != nil || len(data) == 0 {
		return nil, false
	}
	return data, true
}

// Hashes lists the entry hashes currently stored, sorted — the read-side
// enumeration for result listings. Sidecar files (.conflict, temp files)
// are excluded.
func (s *Store) Hashes() []string {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		h := strings.TrimSuffix(name, ".json")
		if h != name && ValidHash(h) {
			out = append(out, h)
		}
	}
	sort.Strings(out)
	return out
}

// Has reports whether a non-empty entry exists for key without reading
// it — the shard executor's cheap "cell done" probe.
func (s *Store) Has(key string) bool {
	fi, err := os.Stat(s.path(key))
	return err == nil && fi.Size() > 0
}

// Put stores data for key atomically and durably.
func (s *Store) Put(key string, data []byte) error {
	path := s.path(key)
	err := s.faults().do("store.put", path, func() error { return WriteFileDurable(path, data) })
	if err != nil {
		return fmt.Errorf("checkpoint: put: %w", err)
	}
	return nil
}

// ConflictError reports a PutVerify that found an existing entry with
// different bytes: two executions of the same content-addressed key
// disagreed, which for byte-deterministic trials means a determinism
// violation. Both payloads are preserved on disk for diffing.
type ConflictError struct {
	Key  string // logical key
	Path string // existing entry (first writer's bytes)
	// ConflictPath holds the rejected second payload, written next to the
	// entry as <hash>.conflict.
	ConflictPath string
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("checkpoint: entry for key %q already holds different bytes (have %s, rejected payload preserved at %s)",
		e.Key, e.Path, e.ConflictPath)
}

// PutVerify stores data for key unless an entry already exists. An
// existing byte-identical entry is a no-op (the at-least-once duplicate
// completion case); an existing different entry leaves the store
// untouched, preserves the rejected payload at <hash>.conflict, and
// returns a *ConflictError.
//
// Concurrent PutVerify calls for the same key are safe: the commit is a
// link(2) of the synced temp file into place, which — unlike Put's rename
// — fails when an entry already exists instead of silently replacing it.
// Exactly one of N concurrent divergent writers wins; every loser observes
// the winner's complete bytes and reports a conflict. Readers (Get,
// GetHash) racing an in-flight PutVerify see either nothing or the
// complete committed entry, never a partial write, because data only
// becomes visible under the entry name at the link.
func (s *Store) PutVerify(key string, data []byte) error {
	return s.PutVerifyFenced(key, data, nil)
}

// PutVerifyFenced is PutVerify with a fencing check: fence (typically a
// closure over Lease.Verify for the claim that authorized this write) is
// re-evaluated at the top of every commit attempt, and any error it
// returns — a *FencedError for a superseded epoch — aborts the write with
// the store untouched. The fence runs BEFORE the byte-identical fast
// path, so a zombie writer resumed after its lease was stolen is rejected
// deterministically rather than slipping through whenever its bytes
// happen to match: a fenced duplicate is a protocol event worth counting,
// and a fenced divergence must never be recorded as a determinism
// conflict against the legitimate writer.
func (s *Store) PutVerifyFenced(key string, data []byte, fence func() error) error {
	path := s.path(key)
	for attempt := 0; attempt < 4; attempt++ {
		if fence != nil {
			if err := fence(); err != nil {
				return err
			}
		}
		if have, err := os.ReadFile(path); err == nil && len(have) > 0 {
			if bytes.Equal(have, data) {
				return nil
			}
			conflict := path + ".conflict"
			if werr := WriteFileDurable(conflict, data); werr != nil {
				conflict = "(preserve failed: " + werr.Error() + ")"
			}
			return &ConflictError{Key: key, Path: path, ConflictPath: conflict}
		} else if err == nil {
			// Zero-length entry: corrupt leftover, documented as
			// indistinguishable from missing. Clear the name so the link
			// commit below can claim it.
			os.Remove(path)
		}
		switch err := s.faults().do("store.put-verify", path, func() error { return createIfAbsent(path, data) }); {
		case err == nil:
			return nil
		case errors.Is(err, fs.ErrExist):
			// Lost the commit race to a competing writer: loop to read its
			// entry and verify our bytes against it.
		default:
			return fmt.Errorf("checkpoint: put-verify: %w", err)
		}
	}
	return fmt.Errorf("checkpoint: put-verify: entry for key %q kept vanishing between commit attempts", key)
}

// createIfAbsent durably commits data to path only if no entry exists
// there, using link(2) as the atomic test-and-commit. Returns fs.ErrExist
// (wrapped) when a competing entry holds the name.
func createIfAbsent(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	defer os.Remove(name)
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Link(name, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// crashPoint, when non-nil, fires at named stages of the durable write
// protocol so tests can simulate a kill at any point (by panicking) and
// assert the store is still consistent. Always nil outside tests.
var crashPoint func(stage string)

func crash(stage string) {
	if crashPoint != nil {
		crashPoint(stage)
	}
}

// WriteFileDurable writes data to path atomically AND durably: temp file
// in the same directory, write, fsync the file, rename over path, fsync
// the parent directory. The final dirsync is what makes the rename itself
// survive a crash — without it a kill between rename and the next journal
// flush can leave the directory entry unrecorded, orphaning the write
// (and, for shard claims, the claim it represents).
func WriteFileDurable(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	crash("create")
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	crash("write")
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	crash("sync-file")
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	crash("rename")
	if err := syncDir(dir); err != nil {
		return err
	}
	crash("sync-dir")
	return nil
}

// syncDir fsyncs a directory so a preceding rename/create/remove in it is
// durable. Best-effort on filesystems that reject directory fsync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !os.IsPermission(err) {
		return err
	}
	return nil
}

// Len counts stored entries (completed series), for resume reporting.
func (s *Store) Len() int {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			n++
		}
	}
	return n
}
