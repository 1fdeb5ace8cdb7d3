// Package rio provides format-dispatching RDF file I/O for the command-line
// tools: N-Triples (.nt) and Turtle (.ttl) readers behind one call.
package rio

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"powl/internal/ntriples"
	"powl/internal/rdf"
	"powl/internal/turtle"
)

// LoadFile parses path into g, interning into dict. The format is chosen by
// extension: .ttl/.turtle → Turtle, anything else → N-Triples. Returns the
// number of triples added.
func LoadFile(path string, dict *rdf.Dict, g *rdf.Graph) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	switch strings.ToLower(filepath.Ext(path)) {
	case ".ttl", ".turtle":
		n, err := turtle.ReadGraph(f, dict, g)
		if err != nil {
			return n, fmt.Errorf("%s: %w", path, err)
		}
		return n, nil
	default:
		n, err := ntriples.ReadGraph(f, dict, g)
		if err != nil {
			return n, fmt.Errorf("%s: %w", path, err)
		}
		return n, nil
	}
}
