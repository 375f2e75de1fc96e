package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestRunbookEventVocabulary holds the Event* string constants of this
// package and the first column of docs/OPERATIONS.md's event table to the
// same set of names, so an event added, renamed or deleted in one moves
// in the other too.
func TestRunbookEventVocabulary(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var code []string
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, id := range vs.Names {
					if !strings.HasPrefix(id.Name, "Event") || i >= len(vs.Values) {
						continue
					}
					if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						v, err := strconv.Unquote(lit.Value)
						if err != nil {
							t.Fatal(err)
						}
						code = append(code, v)
					}
				}
			}
		}
	}

	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	var doc []string
	inTable := false
	for _, line := range strings.Split(string(raw), "\n") {
		switch {
		case strings.HasPrefix(line, "| `event` |"):
			inTable = true
		case !inTable || strings.HasPrefix(line, "|---"):
		case strings.HasPrefix(line, "|"):
			cell := strings.TrimSpace(strings.Split(line, "|")[1])
			doc = append(doc, strings.Trim(cell, "`"))
		default:
			inTable = false
		}
	}

	if len(code) == 0 || len(doc) == 0 {
		t.Fatalf("found %d Event* constants and %d runbook rows; want both non-empty", len(code), len(doc))
	}
	sort.Strings(code)
	sort.Strings(doc)
	if !reflect.DeepEqual(code, doc) {
		t.Fatalf("event vocabulary drifted:\n code %v\n docs/OPERATIONS.md %v", code, doc)
	}
}
