package transport

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"powl/internal/ntriples"
	"powl/internal/obs"
	"powl/internal/rdf"
)

// File is the shared-filesystem transport of the paper's implementation
// (§V): every message is written as an N-Triples file into a shared
// directory and parsed back by the receiver. The full serialize/write/
// read/parse cost is paid, which is what the paper measures as "IO" in its
// overhead breakdown (Figure 2).
type File struct {
	// Obs, when non-nil, receives one Batch call per message file written,
	// with the file's on-disk byte size.
	Obs *obs.TransportRecorder

	dir  string
	dict *rdf.Dict
	mu   sync.Mutex
	seq  map[[3]int]int // (round, from, to) -> next file sequence number
}

// NewFile returns a file transport rooted at dir (created if needed); dict
// resolves IDs for serialization and re-interns on receive.
func NewFile(dir string, dict *rdf.Dict) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("transport/file: %w", err)
	}
	return &File{dir: dir, dict: dict, seq: map[[3]int]int{}}, nil
}

// Name implements Transport.
func (*File) Name() string { return "file" }

// Send implements Transport. Messages are written to
// dir/r<round>/m_<from>_<to>_<seq>.nt; the final name appears atomically via
// rename so a concurrent Recv never observes a partial file.
func (f *File) Send(ctx context.Context, round, from, to int, ts []rdf.Triple) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(ts) == 0 {
		return nil
	}
	rdir := filepath.Join(f.dir, fmt.Sprintf("r%d", round))
	if err := os.MkdirAll(rdir, 0o755); err != nil {
		return err
	}
	key := [3]int{round, from, to}
	f.mu.Lock()
	seq := f.seq[key]
	f.seq[key] = seq + 1
	f.mu.Unlock()
	tmp := filepath.Join(rdir, fmt.Sprintf(".tmp_%d_%d_%d", from, to, seq))
	final := filepath.Join(rdir, fmt.Sprintf("m_%d_%d_%d.nt", from, to, seq))

	w, err := os.Create(tmp)
	if err != nil {
		return err
	}
	nw := ntriples.NewWriter(w, f.dict)
	if err := nw.WriteAll(ts); err != nil {
		w.Close()
		return err
	}
	if err := nw.Flush(); err != nil {
		w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	if f.Obs != nil {
		var size int64
		if fi, err := os.Stat(final); err == nil {
			size = fi.Size()
		}
		f.Obs.Batch(from, to, len(ts), size)
	}
	return nil
}

// Recv implements Transport: it parses every m_*_<to>_*.nt file of the round
// addressed to this worker.
func (f *File) Recv(ctx context.Context, round, to int) ([]rdf.Triple, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rdir := filepath.Join(f.dir, fmt.Sprintf("r%d", round))
	entries, err := os.ReadDir(rdir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil // nothing was sent this round
		}
		return nil, err
	}
	var out []rdf.Triple
	for _, e := range entries {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var from, dst, seq int
		if n, _ := fmt.Sscanf(e.Name(), "m_%d_%d_%d.nt", &from, &dst, &seq); n != 3 || dst != to {
			continue
		}
		r, err := os.Open(filepath.Join(rdir, e.Name()))
		if err != nil {
			return nil, err
		}
		ts, perr := ntriples.ReadTriples(r, f.dict)
		r.Close()
		if perr != nil {
			// A file that exists (rename is atomic) but does not parse is
			// corrupt, not in flight: retrying cannot help.
			return nil, fmt.Errorf("transport/file: %s: %w: %v", e.Name(), ErrMalformed, perr)
		}
		out = append(out, ts...)
	}
	return out, nil
}

// Close implements Transport, removing the message directory.
func (f *File) Close() error { return os.RemoveAll(f.dir) }
