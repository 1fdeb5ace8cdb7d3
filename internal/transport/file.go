package transport

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"powl/internal/ntriples"
	"powl/internal/obs"
	"powl/internal/rdf"
)

// File is the shared-filesystem transport of the paper's implementation
// (§V): every message is written as an N-Triples file into a shared
// directory and parsed back by the receiver. The full serialize/write/
// read/parse cost is paid, which is what the paper measures as "IO" in its
// overhead breakdown (Figure 2). Derivation lineage travels in a JSON Lines
// sidecar per message (the ntriples lineage codec). Files outlive their
// round, so a receiver may read a round's inbox again — which is how an
// adopter or a restarted worker replays it.
type File struct {
	// Obs, when non-nil, receives one Batch call per message file written,
	// with the file's on-disk byte size.
	Obs *obs.TransportRecorder

	dir  string
	dict *rdf.Dict
	mu   sync.Mutex
	seq  map[fileKey]int // next file sequence number
}

type fileKey struct {
	round, from, to int
	ext             string
}

// File name extensions of triple messages and their lineage sidecars.
const (
	msgExt = ".nt"
	linExt = ".lin.jsonl"
)

// NewFile returns a file transport rooted at dir (created if needed); dict
// resolves IDs for serialization and re-interns on receive.
func NewFile(dir string, dict *rdf.Dict) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("transport/file: %w", err)
	}
	return &File{dir: dir, dict: dict, seq: map[fileKey]int{}}, nil
}

// Name implements Transport.
func (*File) Name() string { return "file" }

// Send implements Transport. Messages are written to
// dir/r<round>/m_<from>_<to>_<seq>.nt.
func (f *File) Send(ctx context.Context, round, from, to int, ts []rdf.Triple) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(ts) == 0 {
		return nil
	}
	size, err := f.write(round, from, to, msgExt, func(w io.Writer) error {
		nw := ntriples.NewWriter(w, f.dict)
		if err := nw.WriteAll(ts); err != nil {
			return err
		}
		return nw.Flush()
	})
	if err == nil {
		f.Obs.Batch(from, to, len(ts), size)
	}
	return err
}

// SendLineage implements LineageCarrier: the records are written next to
// the round's messages as dir/r<round>/m_<from>_<to>_<seq>.lin.jsonl.
func (f *File) SendLineage(ctx context.Context, round, from, to int, lins []rdf.Lineage) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(lins) == 0 {
		return nil
	}
	_, err := f.write(round, from, to, linExt, func(w io.Writer) error {
		return ntriples.WriteLineage(w, f.dict, lins)
	})
	return err
}

// write encodes one file of the round under a temporary name and renames it
// into place, so a concurrent reader never observes a partial file. It
// returns the file's size.
func (f *File) write(round, from, to int, ext string, enc func(io.Writer) error) (int64, error) {
	rdir := filepath.Join(f.dir, fmt.Sprintf("r%d", round))
	if err := os.MkdirAll(rdir, 0o755); err != nil {
		return 0, err
	}
	key := fileKey{round, from, to, ext}
	f.mu.Lock()
	seq := f.seq[key]
	f.seq[key] = seq + 1
	f.mu.Unlock()
	name := fmt.Sprintf("m_%d_%d_%d%s", from, to, seq, ext)
	tmp := filepath.Join(rdir, ".tmp_"+name)
	w, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	err = enc(w)
	// The offset after writing is the file's size; it only feeds the
	// recorder's byte count, so a failed Seek just reports 0.
	size, _ := w.Seek(0, io.SeekCurrent)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	return size, os.Rename(tmp, filepath.Join(rdir, name))
}

// Recv implements Transport: it parses every m_*_<to>_*.nt file of the round
// addressed to this worker.
func (f *File) Recv(ctx context.Context, round, to int) ([]rdf.Triple, error) {
	var out []rdf.Triple
	err := f.read(ctx, round, to, msgExt, func(r io.Reader) error {
		ts, err := ntriples.ReadTriples(r, f.dict)
		out = append(out, ts...)
		return err
	})
	return out, err
}

// RecvLineage implements LineageCarrier.
func (f *File) RecvLineage(ctx context.Context, round, to int) ([]rdf.Lineage, error) {
	var out []rdf.Lineage
	err := f.read(ctx, round, to, linExt, func(r io.Reader) error {
		ls, err := ntriples.ReadLineage(r, f.dict)
		out = append(out, ls...)
		return err
	})
	return out, err
}

// read decodes every file of the round with extension ext addressed to
// `to`, in name order.
func (f *File) read(ctx context.Context, round, to int, ext string, dec func(io.Reader) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	rdir := filepath.Join(f.dir, fmt.Sprintf("r%d", round))
	entries, err := os.ReadDir(rdir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // nothing was sent this round
		}
		return err
	}
	for _, e := range entries {
		if err := ctx.Err(); err != nil {
			return err
		}
		var from, dst, seq int
		if n, _ := fmt.Sscanf(e.Name(), "m_%d_%d_%d", &from, &dst, &seq); n != 3 || dst != to || !strings.HasSuffix(e.Name(), ext) {
			continue
		}
		r, err := os.Open(filepath.Join(rdir, e.Name()))
		if err != nil {
			return err
		}
		derr := dec(r)
		r.Close()
		if derr != nil {
			// A file that exists (rename is atomic) but does not parse is
			// corrupt, not in flight: retrying cannot help.
			return fmt.Errorf("transport/file: %s: %w: %v", e.Name(), ErrMalformed, derr)
		}
	}
	return nil
}

// Close implements Transport, removing the message directory.
func (f *File) Close() error { return os.RemoveAll(f.dir) }
