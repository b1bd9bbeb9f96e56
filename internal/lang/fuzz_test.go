package lang

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse locks in the front end's contract on arbitrary source text:
// Parse never panics, an accepted program formats to source that re-parses,
// formatting that is a fixed point, and Check never panics on an accepted
// program. The committed corpus under testdata/fuzz/FuzzParse seeds the
// paper's listings and the programs the golden and interpreter tests run;
// CI runs a short -fuzz smoke on top.
func FuzzParse(f *testing.F) {
	f.Add(listing1)
	f.Add(listing2)
	srcs, err := filepath.Glob("testdata/*.rg")
	if err != nil {
		f.Fatal(err)
	}
	for _, src := range srcs {
		data, err := os.ReadFile(src)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}

	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		out := Format(prog)
		prog2, err := Parse(out)
		if err != nil {
			t.Fatalf("formatted program does not parse: %v\n--- input ---\n%s\n--- formatted ---\n%s", err, src, out)
		}
		if out2 := Format(prog2); out2 != out {
			t.Fatalf("format is not a fixed point:\n--- first ---\n%s--- second ---\n%s", out, out2)
		}
		// Only a panic fails: most fuzzed programs are rightly rejected.
		_, _ = Check(prog)
	})
}
