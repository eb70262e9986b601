package struql

import (
	"strings"
	"testing"

	"strudel/internal/graph"
)

// Every safety check in Analyze, exercised through Parse (which calls
// it) with the error text pinned, so a refactor cannot silently drop a
// check or garble its diagnosis.
func TestAnalyzeErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"filter-unbound-var",
			`where Items(x), y > 3 create N(x)`,
			"variable y in"},
		{"pred-unbound-var",
			`where Items(x), isNode(z) create N(x)`,
			"variable z in"},
		{"aggregate-arg-unbound",
			`where Items(x) aggregate count(v) as c by x create N(x)`,
			"aggregated variable v is not bound"},
		{"aggregate-by-unbound",
			`where Items(x), x -> "a" -> v aggregate count(v) as c by g create N(c)`,
			"grouping variable g is not bound"},
		{"aggregate-result-collides",
			`where Items(x), x -> "a" -> v aggregate count(v) as x by x create N(x)`,
			"aggregate result x collides"},
		{"skolem-arity-conflict",
			`where Items(x), x -> "a" -> v create N(x) link N(x, v) -> "t" -> v`,
			"Skolem function N used with arities 1 and 2"},
		{"skolem-arity-conflict-across-blocks",
			`where Items(x) create N(x)
			 where Items(y), y -> "a" -> v create N(y, v)`,
			"Skolem function N used with arities 1 and 2"},
		{"skolem-arg-unbound",
			`where Items(x) create N(x, w)`,
			"Skolem argument w in"},
		{"link-target-unbound",
			`where Items(x) create N(x) link N(x) -> "t" -> q`,
			"variable q is not bound"},
		{"arc-var-unbound",
			`where Items(x) create N(x) link N(x) -> l -> x`,
			"arc variable l in link clause is not bound"},
		{"collect-target-unbound",
			`where Items(x) create N(x) collect R(w)`,
			"variable w is not bound"},
		{"nested-uses-consumed-var",
			`where Items(x), x -> "a" -> v aggregate count(v) as c by x
			 create N(x) { link N(x) -> "v" -> v }`,
			"variable v is not bound"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error containing %q", c.src, c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %q, want it to contain %q", err, c.want)
			}
		})
	}
}

// Legal programs near the error boundaries: inherited bindings satisfy
// nested blocks, aggregation rebinds, and consistent Skolem reuse.
func TestAnalyzeAccepts(t *testing.T) {
	for _, src := range []string{
		`where Items(x) create N(x) { where x -> "a" -> v link N(x) -> "v" -> v }`,
		`where Items(x), x -> "a" -> v aggregate count(v) as c by x create N(x) link N(x) -> "c" -> c`,
		`where Items(x) create N(x) where Items(y) create N(y)`,
		`where Items(x), not(x -> "a" -> z) create N(x)`,
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): unexpected error %v", src, err)
		}
	}
}

// TestSkolemCollisionSuffix pins the "#n" disambiguation: distinct
// argument tuples whose sanitized display forms collide get suffixed
// OIDs, while repeated applications memoize to the first OID.
func TestSkolemCollisionSuffix(t *testing.T) {
	env := NewSkolemEnv()
	a := env.OID("P", []graph.Value{graph.NewString("x y")})
	b := env.OID("P", []graph.Value{graph.NewString("x,y")})
	c := env.OID("P", []graph.Value{graph.NewString("x(y")})
	if a != "P(x_y)" {
		t.Errorf("first OID = %q, want P(x_y)", a)
	}
	if b != "P(x_y)#2" || c != "P(x_y)#3" {
		t.Errorf("colliding OIDs = %q, %q, want #2 and #3 suffixes", b, c)
	}
	if again := env.OID("P", []graph.Value{graph.NewString("x,y")}); again != b {
		t.Errorf("memoized OID = %q, want %q", again, b)
	}
	if env.Size() != 3 {
		t.Errorf("Size = %d, want 3", env.Size())
	}
}

// TestSkolemAdoptKeepsIssuedOID carries a suffixed oid into a
// successor environment: the carried application answers with it, its
// display form stays taken, a recorded application keeps its own oid,
// and an oid never issued has no entry.
func TestSkolemAdoptKeepsIssuedOID(t *testing.T) {
	old := NewSkolemEnv()
	xy := []graph.Value{graph.NewString("x,y")}
	old.OID("P", []graph.Value{graph.NewString("x)y")})
	if got := old.OID("P", xy); got != "P(x_y)#2" {
		t.Fatalf("colliding OID = %q, want P(x_y)#2", got)
	}
	env := old.Successor(0)
	if i, ok := old.Entry("P(x_y)#2"); !ok || i != 1 || !env.Carry(old, i) {
		t.Fatalf("Entry(P(x_y)#2) = %d, %v; want 1 and a carried entry", i, ok)
	}
	if got := env.OID("P", xy); got != "P(x_y)#2" {
		t.Errorf("carried OID = %q, want P(x_y)#2", got)
	}
	if got := env.OID("P", []graph.Value{graph.NewString("x(y")}); got != "P(x_y)" {
		t.Errorf("first new OID = %q, want P(x_y)", got)
	}
	if got := env.OID("P", []graph.Value{graph.NewString("x y")}); got != "P(x_y)#3" {
		t.Errorf("OID colliding with the carried one = %q, want P(x_y)#3", got)
	}
	other := old.Successor(0)
	other.OID("P", xy) // issued as P(x_y) there
	if env.Carry(other, 0) {
		t.Error("Carry recorded an application already recorded")
	}
	if got := env.OID("P", xy); got != "P(x_y)#2" || env.Size() != 3 {
		t.Errorf("re-carrying replaced the oid: %q, Size %d", got, env.Size())
	}
	if _, ok := env.Entry("never"); ok {
		t.Error("Entry found an oid never issued")
	}
}

// TestSkolemArgSanitization covers the long-argument truncation marker
// and the reserved-character mapping (including '#', which would forge
// collision suffixes).
func TestSkolemArgSanitization(t *testing.T) {
	env := NewSkolemEnv()
	long := strings.Repeat("a", 60)
	oid := string(env.OID("P", []graph.Value{graph.NewString(long)}))
	if !strings.Contains(oid, "~60") {
		t.Errorf("long argument OID %q lacks ~60 length marker", oid)
	}
	hash := env.OID("Q", []graph.Value{graph.NewString("a#2")})
	if hash != "Q(a_2)" {
		t.Errorf("OID with '#' argument = %q, want Q(a_2)", hash)
	}
}

// TestSkolemIntTexts covers the oid integer rendering helper.
func TestSkolemIntTexts(t *testing.T) {
	if itoa(0) != "0" || itoa(1234) != "1234" {
		t.Errorf("itoa: got %q, %q", itoa(0), itoa(1234))
	}
}
