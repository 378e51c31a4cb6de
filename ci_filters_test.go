package facs_test

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIFiltersMatchTests guards the CI gates against silent drop-out:
// `go test -run X` passes when X matches nothing, so a renamed or
// deleted test would quietly leave its gate. Every -run, -bench and
// -fuzz pattern in the CI workflow is split into its `|` alternatives
// (groups expanded), and each alternative must match a test, example,
// benchmark or fuzz target of the kind the flag selects in the packages
// its command names. Only the part of a pattern before `/` (the
// top-level name) is compared. TestNone and ^$ match nothing on
// purpose and are exempt.
func TestCIFiltersMatchTests(t *testing.T) {
	cmds, err := ciTestCommands(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, c := range cmds {
		names := map[string][]string{} // kind prefix -> names
		for _, pkg := range c.pkgs {
			if err := collectTestNames(filepath.Join(c.dir, pkg), names); err != nil {
				t.Fatalf("%s: %v", c.line, err)
			}
		}
		for flag, pattern := range c.patterns {
			kinds := map[string][]string{
				"-run":   {"Test", "Example", "Fuzz"},
				"-bench": {"Benchmark"},
				"-fuzz":  {"Fuzz"},
			}[flag]
			top := splitTop(pattern, '/')[0]
			for _, alt := range alternatives(top) {
				if alt == "TestNone" || alt == "^$" {
					continue
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Fatalf("%s: %s %q: %v", c.line, flag, alt, err)
				}
				checked++
				if !matchesAny(re, kinds, names) {
					t.Errorf("%s\n\t%s alternative %q matches no %s function in %v",
						c.line, flag, alt, strings.Join(kinds, "/"), c.pkgs)
				}
			}
		}
	}
	if checked < 20 {
		t.Fatalf("checked only %d filter alternatives; the workflow parser lost the CI commands", checked)
	}
}

// ciCommand is one `go test` invocation from the workflow.
type ciCommand struct {
	line     string
	dir      string            // working directory relative to the repo root
	pkgs     []string          // package patterns
	patterns map[string]string // -run/-bench/-fuzz -> pattern
}

// ciTestCommands extracts every `go test` command from the workflow's
// run steps, joining backslash continuations and following a leading
// `cd DIR &&`.
func ciTestCommands(path string) ([]ciCommand, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var cmds []ciCommand
	var pending string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		line = strings.TrimPrefix(line, "run: ")
		if strings.HasSuffix(line, `\`) {
			pending += strings.TrimSuffix(line, `\`) + " "
			continue
		}
		line, pending = pending+line, ""
		dir := "."
		for _, seg := range strings.Split(line, "&&") {
			words := shellWords(seg)
			if len(words) == 2 && words[0] == "cd" {
				dir = words[1]
				continue
			}
			if c, ok := parseGoTest(words); ok {
				c.line, c.dir = strings.TrimSpace(seg), dir
				cmds = append(cmds, c)
			}
		}
	}
	return cmds, sc.Err()
}

// parseGoTest reads the filters and packages of a `go test` command;
// environment assignments before `go` are skipped.
func parseGoTest(words []string) (ciCommand, bool) {
	for len(words) > 0 && strings.Contains(words[0], "=") {
		words = words[1:]
	}
	if len(words) < 2 || words[0] != "go" || words[1] != "test" {
		return ciCommand{}, false
	}
	valueFlags := map[string]bool{"-run": true, "-bench": true, "-fuzz": true, "-fuzztime": true,
		"-benchtime": true, "-count": true, "-timeout": true, "-cpu": true, "-parallel": true}
	c := ciCommand{patterns: map[string]string{}}
	for i := 2; i < len(words); i++ {
		w := words[i]
		if !strings.HasPrefix(w, "-") {
			c.pkgs = append(c.pkgs, w)
			continue
		}
		name, value, hasValue := strings.Cut(w, "=")
		if valueFlags[name] && !hasValue && i+1 < len(words) {
			i++
			value = words[i]
		}
		if name == "-run" || name == "-bench" || name == "-fuzz" {
			c.patterns[name] = value
		}
	}
	if len(c.pkgs) == 0 {
		c.pkgs = []string{"."}
	}
	return c, true
}

// shellWords splits a command on blanks, honouring single and double
// quotes.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	inWord := false
	var quote rune
	for _, r := range s {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				cur.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// splitTop splits s at every sep outside parentheses and brackets.
func splitTop(s string, sep byte) []string {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case sep:
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, s[start:])
}

// alternatives expands a regular expression's alternations, including
// those inside groups, into the plain patterns they select between:
// ^B(X|Y)$|Z yields ^B(X)$, ^B(Y)$ and Z.
func alternatives(p string) []string {
	var out []string
	for _, part := range splitTop(p, '|') {
		open := strings.IndexByte(part, '(')
		if open < 0 {
			out = append(out, part)
			continue
		}
		depth, close := 0, -1
		for i := open; i < len(part) && close < 0; i++ {
			switch part[i] {
			case '(':
				depth++
			case ')':
				if depth--; depth == 0 {
					close = i
				}
			}
		}
		if close < 0 {
			out = append(out, part) // unbalanced: let regexp.Compile report it
			continue
		}
		for _, inner := range alternatives(part[open+1 : close]) {
			for _, rest := range alternatives(part[close+1:]) {
				out = append(out, part[:open]+"("+inner+")"+rest)
			}
		}
	}
	return out
}

var testFuncRE = regexp.MustCompile(`(?m)^func ((Test|Example|Benchmark|Fuzz)\w*)\(`)

// collectTestNames adds the test, example, benchmark and fuzz function
// names of the package pattern (a directory, or DIR/... for a tree) to
// names, keyed by kind.
func collectTestNames(pattern string, names map[string][]string) error {
	dir, recursive := strings.CutSuffix(pattern, "...")
	dir = filepath.Clean(dir)
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && (!recursive || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			// A nested module is not part of this pattern.
			if path != dir {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncRE.FindAllStringSubmatch(string(src), -1) {
			names[m[2]] = append(names[m[2]], m[1])
		}
		return nil
	})
}

func matchesAny(re *regexp.Regexp, kinds []string, names map[string][]string) bool {
	for _, k := range kinds {
		for _, n := range names[k] {
			if re.MatchString(n) {
				return true
			}
		}
	}
	return false
}
