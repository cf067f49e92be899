// Package ckpt implements the append-only checkpoint file behind the CLI's
// -checkpoint flag. After every completed task the engine appends one
// length-prefixed, CRC-checksummed record; on restart, verified records are
// replayed through the scheduler's Saver hook so only missing task indices
// re-execute. The file carries a configuration fingerprint so a checkpoint
// taken under one experiment configuration is never replayed into another.
//
// Layout:
//
//	magic "PFLCKPT1" | u32 fingerprint length | fingerprint bytes
//	repeated records: u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// where each payload is the gob encoding of a {Kind, Key, Index, Data}
// record. A torn final record (crash mid-append) is detected by length or
// checksum and the file is truncated back to the last verified record, so a
// checkpoint is always usable after an unclean shutdown.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"prefetchlab/internal/atomicio"
)

var magic = []byte("PFLCKPT1")

// ErrFingerprint reports that an existing checkpoint file was written under
// a different experiment configuration and cannot be resumed.
var ErrFingerprint = errors.New("ckpt: configuration fingerprint mismatch")

// ErrCorrupt reports a file that is not a usable checkpoint: bad magic, or
// a header too damaged to verify. Torn or corrupt *records* are not errors
// (they are truncated away); ErrCorrupt means nothing before the records
// could be trusted. Every corrupt-input failure wraps this sentinel, so
// callers can distinguish "delete and start over" from I/O trouble.
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint")

// maxRecord bounds a single record so a corrupted length prefix cannot make
// Open attempt a multi-gigabyte allocation.
const maxRecord = 64 << 20

// Record kinds used by the engine.
const (
	KindTask = "task" // a completed scheduler task, keyed by (batch, index)
	KindStat = "stat" // a recorded stats snapshot, keyed by stat key
)

type record struct {
	Kind  string
	Key   string
	Index int
	Data  []byte
}

// File is an open checkpoint: an in-memory replay index over the verified
// records plus an append handle. Safe for concurrent use.
type File struct {
	mu       sync.Mutex
	f        *os.File
	seen     map[recordKey][]byte
	replayed int   // records recovered at Open
	appended int   // records written this session
	err      error // first append failure, if any
}

type recordKey struct {
	kind, key string
	index     int
}

// closeQuietly releases f on a path that is already returning an earlier,
// more interesting error; the secondary Close result adds nothing a caller
// could act on.
func closeQuietly(f *os.File) {
	_ = f.Close() // lint:allow errwrap (secondary failure on an error path; the primary error is already being returned)
}

// Open opens (or creates) the checkpoint at path. fingerprint identifies the
// experiment configuration; resuming a file written under a different
// fingerprint fails with ErrFingerprint. Torn or corrupt trailing records
// are discarded and the file is truncated to its last verified record.
func Open(path, fingerprint string) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	c := &File{f: f, seen: make(map[recordKey][]byte)}
	info, err := f.Stat()
	if err != nil {
		closeQuietly(f)
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	if info.Size() == 0 {
		// Publish the header atomically (temp file + rename): a crash or
		// kill mid-header must never leave a torn prefix that would make the
		// next Open reject the file as corrupt instead of starting fresh.
		closeQuietly(f)
		if err := atomicio.WriteFile(path, func(w io.Writer) error {
			return writeHeaderTo(w, fingerprint)
		}); err != nil {
			return nil, fmt.Errorf("ckpt: writing header: %w", err)
		}
		f, err = os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("ckpt: %w", err)
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			closeQuietly(f)
			return nil, fmt.Errorf("ckpt: %w", err)
		}
		c.f = f
		return c, nil
	}
	good, err := c.load(fingerprint)
	if err != nil {
		closeQuietly(f)
		return nil, err
	}
	// Drop any torn tail so the next append starts on a record boundary.
	if err := f.Truncate(good); err != nil {
		closeQuietly(f)
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		closeQuietly(f)
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return c, nil
}

// writeHeaderTo serializes the file header: magic, fingerprint length,
// fingerprint bytes.
func writeHeaderTo(w io.Writer, fingerprint string) error {
	var buf bytes.Buffer
	buf.Write(magic)
	var lenb [4]byte
	binary.LittleEndian.PutUint32(lenb[:], uint32(len(fingerprint)))
	buf.Write(lenb[:])
	buf.WriteString(fingerprint)
	_, err := w.Write(buf.Bytes())
	return err
}

// load verifies the header and replays every intact record, returning the
// offset just past the last verified record.
func (c *File) load(fingerprint string) (int64, error) {
	if _, err := c.f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("ckpt: %w", err)
	}
	r := &countingReader{r: c.f}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r, head); err != nil || !bytes.Equal(head, magic) {
		return 0, fmt.Errorf("%w: not a checkpoint file (bad magic)", ErrCorrupt)
	}
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return 0, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(lenb[:])
	if n > maxRecord {
		return 0, fmt.Errorf("%w: implausible fingerprint length %d", ErrCorrupt, n)
	}
	fp := make([]byte, n)
	if _, err := io.ReadFull(r, fp); err != nil {
		return 0, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if string(fp) != fingerprint {
		return 0, fmt.Errorf("%w: file has %q, run has %q", ErrFingerprint, fp, fingerprint)
	}
	good := r.n
	for {
		var prefix [8]byte
		if _, err := io.ReadFull(r, prefix[:]); err != nil {
			return good, nil // clean EOF or torn length prefix
		}
		plen := binary.LittleEndian.Uint32(prefix[0:4])
		sum := binary.LittleEndian.Uint32(prefix[4:8])
		if plen > maxRecord {
			return good, nil // corrupt length
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(r, payload); err != nil {
			return good, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return good, nil // corrupt payload
		}
		var rec record
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
			return good, nil
		}
		c.seen[recordKey{rec.Kind, rec.Key, rec.Index}] = rec.Data
		c.replayed++
		good = r.n
	}
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Append persists one record, deduplicating by (kind, key, index): a record
// already present (replayed or appended earlier) is not rewritten.
func (c *File) Append(kind, key string, index int, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	rk := recordKey{kind, key, index}
	if _, ok := c.seen[rk]; ok {
		return nil
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(record{kind, key, index, data}); err != nil {
		return c.fail(fmt.Errorf("ckpt: encoding record: %w", err))
	}
	var buf bytes.Buffer
	var prefix [8]byte
	binary.LittleEndian.PutUint32(prefix[0:4], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(prefix[4:8], crc32.ChecksumIEEE(payload.Bytes()))
	buf.Write(prefix[:])
	buf.Write(payload.Bytes())
	if _, err := c.f.Write(buf.Bytes()); err != nil {
		return c.fail(fmt.Errorf("ckpt: appending record: %w", err))
	}
	c.seen[rk] = data
	c.appended++
	return nil
}

func (c *File) fail(err error) error {
	if c.err == nil {
		c.err = err
	}
	return err
}

// Lookup returns the stored data for (kind, key, index).
func (c *File) Lookup(kind, key string, index int) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	data, ok := c.seen[recordKey{kind, key, index}]
	return data, ok
}

// Each calls fn for every stored record of the given kind.
func (c *File) Each(kind string, fn func(key string, index int, data []byte)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for rk, data := range c.seen {
		if rk.kind == kind {
			fn(rk.key, rk.index, data)
		}
	}
}

// Replayed reports how many verified records Open recovered.
func (c *File) Replayed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replayed
}

// Appended reports how many records this session has written.
func (c *File) Appended() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.appended
}

// Err returns the first append failure, if any. The scheduler's Saver hook
// cannot return errors, so persistence failures surface here at shutdown.
func (c *File) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Sync flushes the file to stable storage.
func (c *File) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.f.Sync()
}

// Close syncs and closes the file.
func (c *File) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.f.Sync(); err != nil {
		closeQuietly(c.f)
		return fmt.Errorf("ckpt: %w", err)
	}
	return c.f.Close()
}

// Tasks returns a view of the file that satisfies the scheduler's Saver
// interface: completed task results are persisted under KindTask, keyed by
// batch name and task index.
func (c *File) Tasks() *TaskStore { return &TaskStore{c: c} }

// TaskStore adapts a checkpoint File to the scheduler's Saver interface.
type TaskStore struct{ c *TaskStoreFile }

// TaskStoreFile is the underlying checkpoint type; declared as an alias so
// TaskStore's field stays documented without exporting internals.
type TaskStoreFile = File

// Lookup returns the persisted result for a task, if present.
func (s *TaskStore) Lookup(batch string, index int) ([]byte, bool) {
	return s.c.Lookup(KindTask, batch, index)
}

// Save persists a completed task result. Append failures are sticky and
// reported by the File's Err method; the run itself continues.
func (s *TaskStore) Save(batch string, index int, data []byte) {
	// lint:allow errwrap (Append failures are sticky by design: File.Err reports them at close; the run itself must continue)
	_ = s.c.Append(KindTask, batch, index, data)
}
