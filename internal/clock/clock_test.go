package clock

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRealClock(t *testing.T) {
	before := time.Now()
	got := Real{}.Now()
	if got.Before(before.Add(-time.Second)) || got.After(before.Add(time.Minute)) {
		t.Fatalf("Real.Now = %v", got)
	}
	start := time.Now()
	Real{}.Sleep(time.Millisecond)
	if time.Since(start) < time.Millisecond {
		t.Fatal("Real.Sleep returned before the duration passed")
	}
}

func TestClockMonotonic(t *testing.T) {
	c := NewSim(time.Unix(1000, 0))
	c.Advance(-time.Hour)
	if !c.Now().Equal(time.Unix(1000, 0)) {
		t.Fatal("negative advance moved the clock")
	}
	c.Set(time.Unix(500, 0))
	if !c.Now().Equal(time.Unix(1000, 0)) {
		t.Fatal("Set moved the clock backwards")
	}
	c.Set(time.Unix(2000, 0))
	if !c.Now().Equal(time.Unix(2000, 0)) {
		t.Fatal("Set failed to move the clock forwards")
	}
	c.Sleep(-time.Hour)
	if !c.Now().Equal(time.Unix(2000, 0)) {
		t.Fatal("negative Sleep moved the clock")
	}
	c.Sleep(90 * time.Second)
	if got, want := c.Now(), time.Unix(2090, 0); !got.Equal(want) {
		t.Fatalf("after Sleep(90s) Now = %v, want %v", got, want)
	}
}

// TestOneClockType fails if any program file under internal/ or cmd/ other
// than this package declares its own Clock or realClock type: every layer
// takes clock.Clock.
func TestOneClockType(t *testing.T) {
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(self, "..", "..")
	fset := token.NewFileSet()
	files := 0
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path == self {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files++
			for _, decl := range f.Decls {
				gen, ok := decl.(*ast.GenDecl)
				if !ok || gen.Tok != token.TYPE {
					continue
				}
				for _, spec := range gen.Specs {
					if name := spec.(*ast.TypeSpec).Name.Name; name == "Clock" || name == "realClock" {
						t.Errorf("%s declares type %s; use clock.Clock", fset.Position(spec.Pos()), name)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files == 0 {
		t.Fatal("no Go files found under internal/ or cmd/")
	}
}
