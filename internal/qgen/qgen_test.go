package qgen

import (
	"crypto/sha256"
	"encoding/hex"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestCorpusIsStable pins the package's promise that the corpus is
// bit-for-bit stable: oracle seeds and fuzz corpora name cases by seed,
// so a generator change that moves any output must show up here.
func TestCorpusIsStable(t *testing.T) {
	for _, c := range []struct {
		seed               uint64
		graph, where, rich string
	}{
		{1, "d2c750f011eb6e963e66f443c1b0e3470dae97e617c3bcded85218e61613a33c",
			"f51c0a9c3c862ccc0a5b6f286df311eed4269b30804496342222cfc25c2dad45",
			"b81e82fa5e3c4b82cf37b34276b3c52c63b63f3045cc641c8d78126a46492ef9"},
		{7, "b091d0b7690345602ed1b71387936c1f267a92282febcc59aeb095a4b3c78225",
			"8d4649a0db3968f7f2c228f630b29bec817ec2b3c9c3c54975ff2e2771c93a33",
			"5862567aea466854725a6d260e7297a26f72394a4185d450ff08b265c6777c60"},
		{42, "caf95636b131ceabacdfbb11d822e49eb0b4f7ffe7136d07e434a532e1b5c86e",
			"064396ecc61bf4907d80254b55609f576ea24ce9e0130effab8f8a769e4f32ba",
			"ffa0e797c6088199e1592ea107e3f1a01f439fa837771170dc925aee77922b69"},
		{1998, "6da11602da46e3625b44c26d0384cbf71d72eb2a5f5a0909f120a00486894b44",
			"1fb9093cd1deecf0ba15f8632ff722a95ebbe9c78aeed42d1c00ad8396572459",
			"e2dab092165bd307b9a20605cf95d2dde58ed518aeb669fa70345131eb10281a"},
	} {
		if got := digest(Graph(c.seed).Dump()); got != c.graph {
			t.Errorf("Graph(%d).Dump() digest %s, want %s", c.seed, got, c.graph)
		}
		if got := digest(WhereClause(c.seed)); got != c.where {
			t.Errorf("WhereClause(%d) digest %s, want %s", c.seed, got, c.where)
		}
		if got := digest(RichQuery(c.seed)); got != c.rich {
			t.Errorf("RichQuery(%d) digest %s, want %s", c.seed, got, c.rich)
		}
	}
}

var (
	pathRe     = regexp.MustCompile(`^(\w+) -> (.+) -> (\w+)$`)
	constRe    = regexp.MustCompile(`^\w+ -> "kind" -> "\w+"$`)
	labelRe    = regexp.MustCompile(`^"\w+"$`)
	varRe      = regexp.MustCompile(`^(x|v\d+|l\d+)$`)
	notLabelRe = regexp.MustCompile(`^not\(\w+ -> ("\w+") -> nz\d+\)$`)
	notYearRe  = regexp.MustCompile(`^not\(\w+ -> "year" -> nz\d+, nz\d+ > \d+\)$`)
	notInRe    = regexp.MustCompile(`^not\(Extra\(\w+\)\)$`)
)

// varIndex orders the generator's variables by creation: x first, then
// v1, v2, ...; arc-label variables sort before all of them.
func varIndex(v string) int {
	if n, err := strconv.Atoi(strings.TrimPrefix(v, "v")); err == nil && v[0] == 'v' {
		return n
	}
	if v == "x" {
		return 0
	}
	return -1
}

// condForms names the form of every condition in one generated list.
// A variable is bound once, by the condition that creates it, and a
// created variable is always the newest in its condition, so a path's
// direction and a membership's scan-or-probe read off the numbering.
func condForms(t *testing.T, cs []string) []string {
	created := map[string]bool{}
	for _, c := range cs {
		if m := pathRe.FindStringSubmatch(c); m != nil {
			if varIndex(m[1]) > varIndex(m[3]) {
				created[m[1]] = true
			} else {
				created[m[3]] = true
			}
		}
	}
	var forms []string
	for _, c := range cs {
		form := ""
		m := pathRe.FindStringSubmatch(c)
		switch {
		case strings.HasPrefix(c, "Items(") || strings.HasPrefix(c, "Extra("):
			arg := c[strings.IndexByte(c, '(')+1 : len(c)-1]
			switch {
			case arg == "x":
				form = "membership of x"
			case created[arg] || arg[0] == 'l':
				form = "membership probe"
			default:
				form = "membership scan"
			}
		case notLabelRe.MatchString(c):
			form = "negated path " + notLabelRe.FindStringSubmatch(c)[1]
		case notYearRe.MatchString(c):
			form = "negated filtered path"
		case notInRe.MatchString(c):
			form = "negated membership"
		case strings.HasPrefix(c, "is"):
			form = "predicate " + c[:strings.IndexByte(c, '(')]
		case constRe.MatchString(c):
			form = "constant target"
		case m == nil:
			f := strings.Fields(c)
			switch {
			case len(f) != 3:
			case varRe.MatchString(f[2]):
				form = "variable comparison " + f[1]
			case strings.HasPrefix(f[2], `"`):
				form = "string comparison " + f[1]
			default:
				form = "int comparison " + f[1]
			}
		case strings.HasPrefix(m[2], "l"):
			form = "arc variable"
		case !labelRe.MatchString(m[2]):
			form = "path expression " + m[2]
		case varIndex(m[1]) > varIndex(m[3]):
			form = "reverse path"
		default:
			form = "forward path"
		}
		if form == "" {
			t.Errorf("condition %q has no known form", c)
		}
		forms = append(forms, form)
	}
	return forms
}

// TestCorpusCoversEveryForm checks that, over a fixed seed range, every
// condition form conds can emit and every construction form RichQuery
// can emit actually appears — a generator whose random choices stopped
// reaching a form would shrink every oracle that uses it, silently.
func TestCorpusCoversEveryForm(t *testing.T) {
	want := []string{
		"membership of x", "membership scan", "membership probe",
		"forward path", "reverse path", "arc variable", "constant target",
		`path expression "next"*`, `path expression "next"+`,
		`path expression ("next"|"ref")`, `path expression "next"."tag"`,
		`path expression "ref"?."kind"`, `path expression ~"t.*"`,
		`path expression _`, `path expression ("next"."ref")*`,
		`path expression "next"?`,
		"int comparison >", "int comparison <=",
		"string comparison !=", "string comparison =",
		"variable comparison !=", "variable comparison =", "variable comparison <",
		"predicate isNode", "predicate isAtom", "predicate isInt", "predicate isString",
		`negated path "extra"`, `negated path "kind"`, `negated path "ref"`,
		"negated filtered path", "negated membership",
	}
	construction := map[string]*regexp.Regexp{
		"aggregate count":        regexp.MustCompile(`\naggregate count\(`),
		"aggregate min":          regexp.MustCompile(`\naggregate min\(`),
		"aggregate max":          regexp.MustCompile(`\naggregate max\(`),
		"aggregate sum":          regexp.MustCompile(`\naggregate sum\(`),
		"aggregate avg":          regexp.MustCompile(`\naggregate avg\(`),
		"aggregate collection":   regexp.MustCompile(`\ncollect Results\(Agg\(x\)\)`),
		"Skolem page":            regexp.MustCompile(`\ncreate Out\(x\)`),
		"second Skolem function": regexp.MustCompile(`, Pair\(x, \w+\)`),
		"extra link":             regexp.MustCompile(`Out\(x\) -> "t2" -> `),
		"arc-variable link":      regexp.MustCompile(`Out\(x\) -> l\d+ -> x`),
		"page collection":        regexp.MustCompile(`\ncollect Results\(Out\(x\)\)`),
		"nested block":           regexp.MustCompile(`\n\{ where \w+ -> "\w+" -> w create Sub\(x, w\)`),
	}
	seen := map[string]int{}
	for seed := uint64(0); seed < 2000; seed++ {
		cs, _, _ := conds(NewRand(seed))
		for _, f := range condForms(t, cs) {
			seen[f]++
		}
		q := RichQuery(seed)
		if !strings.HasPrefix(q, "where "+strings.Join(cs, ",\n      ")) {
			t.Fatalf("RichQuery(%d) does not start with its seed's condition list", seed)
		}
		for name, re := range construction {
			if re.MatchString(q) {
				seen[name]++
			}
		}
	}
	for _, f := range want {
		if seen[f] == 0 {
			t.Errorf("condition form %s never generated", f)
		}
		delete(seen, f)
	}
	for name := range construction {
		if seen[name] == 0 {
			t.Errorf("construction form %q never generated", name)
		}
		delete(seen, name)
	}
	for f := range seen {
		t.Errorf("generated form %s is missing from the test's list", f)
	}
}
