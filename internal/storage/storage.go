// Package storage reads and writes the text formats the paper's application
// exchanges with its users:
//
//   - the dataset file of Figure 4 — one tuple per line, whitespace-separated
//     tokens, where tokens carrying the annotation prefix (Annot_ by default)
//     are annotations and everything else is a data-value ID;
//   - the annotation update batch of Figure 14 — lines of the form
//     "150:Annot_3", meaning "attach Annot_3 to the 150th tuple" (1-based,
//     as the paper reads it).
//
// Rule output files (Figure 7) are owned by the rules package and
// generalization rule files (Figure 9) by the generalize package, so that
// each format lives next to the domain type it serializes.
package storage

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unicode"

	"annotadb/internal/relation"
)

// DefaultAnnotationPrefix matches the paper's Annot_* token convention.
const DefaultAnnotationPrefix = "Annot_"

// Options configure dataset parsing.
type Options struct {
	// AnnotationPrefix classifies tokens: tokens with this prefix are
	// annotations. Empty means DefaultAnnotationPrefix.
	AnnotationPrefix string
	// Classifier overrides prefix classification when non-nil: tokens for
	// which it returns true are annotations. Corpora whose annotation
	// vocabulary spans several family prefixes (cpu:high, pos:noun, …)
	// need this, since no single AnnotationPrefix covers them.
	Classifier func(token string) bool
	// AllowEmptyTuples keeps lines that contain annotations but no data
	// values (or nothing at all after comment stripping). The paper's
	// dataset always has data values; malformed lines usually indicate a
	// corrupted file, so the default is to reject them.
	AllowEmptyTuples bool
	// MaxLineBytes bounds a single input line. Zero means 1 MiB.
	MaxLineBytes int
}

func (o Options) prefix() string {
	if o.AnnotationPrefix == "" {
		return DefaultAnnotationPrefix
	}
	return o.AnnotationPrefix
}

// isAnnotation classifies one token as annotation or data value.
func (o Options) isAnnotation(tok string) bool {
	if o.Classifier != nil {
		return o.Classifier(tok)
	}
	return strings.HasPrefix(tok, o.prefix())
}

func (o Options) maxLine() int {
	if o.MaxLineBytes <= 0 {
		return 1 << 20
	}
	return o.MaxLineBytes
}

// ParseError reports a malformed input with its line number.
type ParseError struct {
	Path string // "" when reading from a stream
	Line int    // 1-based
	Msg  string
}

// Error renders the location-prefixed message.
func (e *ParseError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("storage: line %d: %s", e.Line, e.Msg)
	}
	return fmt.Sprintf("storage: %s:%d: %s", e.Path, e.Line, e.Msg)
}

// ReadDataset parses a Figure 4 dataset from r into a fresh relation.
// Blank lines and lines starting with '#' are ignored.
func ReadDataset(r io.Reader, opts Options) (*relation.Relation, error) {
	return readDataset(r, opts, "")
}

// ReadDatasetFile parses a Figure 4 dataset file.
func ReadDatasetFile(path string, opts Options) (*relation.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open dataset: %w", err)
	}
	defer f.Close()
	return readDataset(f, opts, path)
}

func readDataset(r io.Reader, opts Options, path string) (*relation.Relation, error) {
	rel := relation.New()
	if err := AppendDataset(rel, r, opts, path); err != nil {
		return nil, err
	}
	return rel, nil
}

// AppendDataset parses a Figure 4 dataset from r and appends its tuples to
// an existing relation, interning tokens into the relation's dictionary.
// This is the primitive behind the menu's "add annotated tuples" (Case 1)
// and "add un-annotated tuples" (Case 2) operations, which the paper
// implements by appending a second file to the loaded dataset.
func AppendDataset(rel *relation.Relation, r io.Reader, opts Options, path string) error {
	dict := rel.Dictionary()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, min(64*1024, opts.maxLine())), opts.maxLine())
	lineNo := 0
	var pending []relation.Tuple
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		var data, annots []string
		for _, tok := range fields {
			if opts.isAnnotation(tok) {
				annots = append(annots, tok)
			} else {
				data = append(data, tok)
			}
		}
		if len(data) == 0 && !opts.AllowEmptyTuples {
			return &ParseError{Path: path, Line: lineNo, Msg: "tuple has no data values"}
		}
		tu, err := dict.ResolveTuple(data, annots)
		if err != nil {
			return &ParseError{Path: path, Line: lineNo, Msg: err.Error()}
		}
		pending = append(pending, tu)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("storage: read dataset: %w", err)
	}
	rel.Append(pending...)
	return nil
}

// WriteDataset writes the relation in Figure 4 format: data tokens first,
// then annotation tokens, one tuple per line. The output round-trips through
// ReadDataset provided every annotation token carries the annotation prefix.
func WriteDataset(w io.Writer, rel *relation.Relation, opts Options) error {
	bw := bufio.NewWriter(w)
	dict := rel.Dictionary()
	var writeErr error
	rel.Each(func(i int, t relation.Tuple) bool {
		first := true
		for _, it := range t.Data {
			if !first {
				if _, writeErr = bw.WriteString(" "); writeErr != nil {
					return false
				}
			}
			first = false
			if _, writeErr = bw.WriteString(dict.Token(it)); writeErr != nil {
				return false
			}
		}
		for _, it := range t.Annots {
			tok := dict.Token(it)
			if !opts.isAnnotation(tok) {
				writeErr = fmt.Errorf("storage: annotation token %q would be read back as a data value; file would not round-trip", tok)
				return false
			}
			if !first {
				if _, writeErr = bw.WriteString(" "); writeErr != nil {
					return false
				}
			}
			first = false
			if _, writeErr = bw.WriteString(tok); writeErr != nil {
				return false
			}
		}
		if _, writeErr = bw.WriteString("\n"); writeErr != nil {
			return false
		}
		return true
	})
	if writeErr != nil {
		return writeErr
	}
	return bw.Flush()
}

// WriteDatasetFile installs the dataset at path with InstallFile. The
// paper's application "rewrites the dataset file" after every update; the
// durable install means a crash mid-rewrite cannot destroy the only copy.
func WriteDatasetFile(path string, rel *relation.Relation, opts Options) error {
	return InstallFile(path, func(w io.Writer) error { return WriteDataset(w, rel, opts) })
}

// UpdateLine is a parsed Figure 14 batch line before annotation interning.
type UpdateLine struct {
	Index int    // zero-based tuple position
	Token string // annotation token, prefix included
}

// ReadUpdateBatch parses a Figure 14 annotation batch ("150:Annot_3" lines).
// Indexes in the file are 1-based, matching the paper's reading that the
// line "150:Annot_3" annotates "the 150th tuple"; the returned lines are
// zero-based. Tokens must carry the annotation prefix.
func ReadUpdateBatch(r io.Reader, opts Options) ([]UpdateLine, error) {
	return readUpdateBatch(r, opts, "")
}

// ReadUpdateBatchFile parses a Figure 14 annotation batch file.
func ReadUpdateBatchFile(path string, opts Options) ([]UpdateLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open update batch: %w", err)
	}
	defer f.Close()
	return readUpdateBatch(f, opts, path)
}

func readUpdateBatch(r io.Reader, opts Options, path string) ([]UpdateLine, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, min(64*1024, opts.maxLine())), opts.maxLine())
	var out []UpdateLine
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idxStr, tok, ok := strings.Cut(line, ":")
		if !ok {
			return nil, &ParseError{Path: path, Line: lineNo, Msg: "expected index:annotation"}
		}
		idxStr = strings.TrimSpace(idxStr)
		tok = strings.TrimSpace(tok)
		idx, err := strconv.Atoi(idxStr)
		if err != nil {
			return nil, &ParseError{Path: path, Line: lineNo, Msg: fmt.Sprintf("bad tuple index %q", idxStr)}
		}
		if idx < 1 {
			return nil, &ParseError{Path: path, Line: lineNo, Msg: fmt.Sprintf("tuple index %d must be >= 1 (indexes are 1-based)", idx)}
		}
		if tok == "" {
			return nil, &ParseError{Path: path, Line: lineNo, Msg: "missing annotation token"}
		}
		if !opts.isAnnotation(tok) {
			return nil, &ParseError{Path: path, Line: lineNo, Msg: fmt.Sprintf("token %q does not classify as an annotation", tok)}
		}
		// Interior whitespace cannot survive the whitespace-separated
		// dataset format (Figure 4), so a token carrying it would be
		// accepted here and then corrupt the dataset round-trip. Found by
		// FuzzParseAnnotations.
		if strings.IndexFunc(tok, unicode.IsSpace) >= 0 {
			return nil, &ParseError{Path: path, Line: lineNo, Msg: fmt.Sprintf("annotation %q contains whitespace", tok)}
		}
		out = append(out, UpdateLine{Index: idx - 1, Token: tok})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("storage: read update batch: %w", err)
	}
	return out, nil
}

// WriteUpdateBatch writes lines in Figure 14 format (1-based indexes).
func WriteUpdateBatch(w io.Writer, lines []UpdateLine) error {
	bw := bufio.NewWriter(w)
	for _, u := range lines {
		if _, err := fmt.Fprintf(bw, "%d:%s\n", u.Index+1, u.Token); err != nil {
			return fmt.Errorf("storage: write update batch: %w", err)
		}
	}
	return bw.Flush()
}

// ResolveUpdates resolves batch tokens against the relation's dictionary
// (Dictionary.ResolveAnnotation) and produces relation.AnnotationUpdate
// values ready for Relation.ApplyUpdates.
func ResolveUpdates(rel *relation.Relation, lines []UpdateLine) ([]relation.AnnotationUpdate, error) {
	dict := rel.Dictionary()
	out := make([]relation.AnnotationUpdate, 0, len(lines))
	for _, u := range lines {
		it, err := dict.ResolveAnnotation(u.Token)
		if err != nil {
			return nil, fmt.Errorf("storage: resolve update %d:%s: %w", u.Index+1, u.Token, err)
		}
		out = append(out, relation.AnnotationUpdate{Index: u.Index, Annotation: it})
	}
	return out, nil
}
