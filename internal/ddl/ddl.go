// Package ddl implements Strudel's data-definition language, the common
// format in which data is exchanged between the data repository and
// external sources (§2.1), in the style of OEM's data-definition language.
//
// The language describes a labeled directed graph:
//
//	# comment
//	collection Publications;
//	directive Publications { abstract: text; postscript: postscript; home: url; }
//	node pub1 in Publications {
//	    title  "A Query Language for a Web-Site Management System";
//	    year   1997;
//	    author "Fernandez";
//	    author "Florescu";
//	    abstract "abstracts/pub1.txt";   # coerced to text file by directive
//	    related &pub2;
//	}
//	member Publications pub2;
//	edge pub1 cites &pub2;
//
// Attribute values are quoted strings, integers, floats, true/false, node
// references (&oid), or explicitly typed atoms: url("..."), text("..."),
// html("..."), image("..."), postscript("..."). A collection directive
// gives default types for attribute values that would otherwise be
// interpreted as strings; per the paper, directives are defaults, not
// constraints, and explicit types in the input override them.
package ddl

import (
	"fmt"
	"sort"
	"strings"

	"strudel/internal/diag"
	"strudel/internal/graph"
)

// ParseError is a DDL syntax error with its 1-based line.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ddl: line %d: %s", e.Line, e.Msg)
}

// Directives records per-collection default attribute types: collection →
// attribute → type name ("url" or a file type).
type Directives map[string]map[string]string

// Document is the parsed form of a DDL source: the graph it denotes plus
// the directives it declared (kept so a document can be re-serialized and
// so wrappers can reuse the coercions).
type Document struct {
	Graph      *graph.Graph
	Directives Directives
}

// Parse parses DDL source text into a Document. Errors are *ParseError
// values carrying 1-based line positions.
func Parse(src string) (*Document, error) {
	p := &parser{lex: newLexer(src), doc: &Document{Graph: graph.New(), Directives: Directives{}}}
	p.out = p.doc
	if err := p.run(); err != nil {
		return nil, err
	}
	return p.doc, nil
}

// ParseLenient parses DDL source in fail-soft mode. Each statement is a
// record; a statement that fails to parse is dropped whole (its partial
// effects discarded), recorded in the report as a position-tagged
// diagnostic attributed to source, and parsing resumes at the next
// statement keyword. The surviving document is exactly what Parse
// would produce for the input with the dirty statements removed.
func ParseLenient(src, source string) (*Document, *diag.Report) {
	p := &parser{lex: newLexer(src), doc: &Document{Graph: graph.New(), Directives: Directives{}}}
	rep := &diag.Report{}
	p.next()
	for p.tok.kind != tokEOF {
		rep.Records++
		// Stage each statement so a failed one leaves no partial edges
		// or memberships behind; directive lookups read the merged doc.
		p.out = &Document{Graph: graph.New(), Directives: Directives{}}
		if err := p.statement(); err != nil {
			line := p.tok.line
			msg := err.Error()
			if pe, ok := err.(*ParseError); ok {
				line, msg = pe.Line, pe.Msg
			}
			rep.Skipped++
			rep.Add(diag.Diagnostic{Source: source, Line: line, Severity: diag.Error,
				Message: "skipped statement: " + msg})
			p.resync()
			continue
		}
		p.doc.Graph.Merge(p.out.Graph)
		for coll, dirs := range p.out.Directives {
			m := p.doc.Directives[coll]
			if m == nil {
				m = map[string]string{}
				p.doc.Directives[coll] = m
			}
			for attr, typ := range dirs {
				m[attr] = typ
			}
		}
	}
	return p.doc, rep
}

// resync discards tokens up to the next statement keyword (or EOF),
// always making progress.
func (p *parser) resync() {
	p.next()
	for p.tok.kind != tokEOF {
		if p.tok.kind == tokIdent && isStmtKeyword(p.tok.text) {
			return
		}
		p.next()
	}
}

func isStmtKeyword(s string) bool {
	switch s {
	case "collection", "directive", "node", "member", "edge":
		return true
	}
	return false
}

// MustParse is Parse for tests and embedded literals; it panics on error.
func MustParse(src string) *Document {
	d, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return d
}

type parser struct {
	lex *lexer
	doc *Document // accumulated document (directive lookups read here)
	out *Document // write target: == doc when strict, per-statement stage when lenient
	tok token
}

func (p *parser) run() error {
	p.next()
	for p.tok.kind != tokEOF {
		if err := p.statement(); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) next() { p.tok = p.lex.scan() }

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Line: p.tok.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(kind tokKind, what string) (token, error) {
	if p.tok.kind != kind {
		return token{}, p.errf("expected %s, got %q", what, p.tok.text)
	}
	t := p.tok
	p.next()
	return t, nil
}

func (p *parser) statement() error {
	if p.tok.kind != tokIdent {
		return p.errf("expected statement keyword, got %q", p.tok.text)
	}
	switch p.tok.text {
	case "collection":
		return p.collectionStmt()
	case "directive":
		return p.directiveStmt()
	case "node":
		return p.nodeStmt()
	case "member":
		return p.memberStmt()
	case "edge":
		return p.edgeStmt()
	default:
		return p.errf("unknown statement %q", p.tok.text)
	}
}

func (p *parser) collectionStmt() error {
	p.next()
	name, err := p.expect(tokIdent, "collection name")
	if err != nil {
		return err
	}
	p.out.Graph.DeclareCollection(name.text)
	_, err = p.expect(tokSemi, "';'")
	return err
}

func (p *parser) directiveStmt() error {
	p.next()
	coll, err := p.expect(tokIdent, "collection name")
	if err != nil {
		return err
	}
	if _, err := p.expect(tokLBrace, "'{'"); err != nil {
		return err
	}
	dirs := p.out.Directives[coll.text]
	if dirs == nil {
		dirs = map[string]string{}
		p.out.Directives[coll.text] = dirs
	}
	for p.tok.kind != tokRBrace {
		attr, err := p.expect(tokIdent, "attribute name")
		if err != nil {
			return err
		}
		if _, err := p.expect(tokColon, "':'"); err != nil {
			return err
		}
		typ, err := p.expect(tokIdent, "type name")
		if err != nil {
			return err
		}
		if typ.text != "url" {
			if _, ok := graph.ParseFileType(typ.text); !ok {
				return p.errf("unknown directive type %q", typ.text)
			}
		}
		dirs[attr.text] = typ.text
		if _, err := p.expect(tokSemi, "';'"); err != nil {
			return err
		}
	}
	p.next() // consume '}'
	return nil
}

func (p *parser) nodeStmt() error {
	p.next()
	oidTok, err := p.expect(tokIdent, "node oid")
	if err != nil {
		return err
	}
	oid := graph.OID(oidTok.text)
	p.out.Graph.AddNode(oid)
	var colls []string
	if p.tok.kind == tokIdent && p.tok.text == "in" {
		p.next()
		for {
			c, err := p.expect(tokIdent, "collection name")
			if err != nil {
				return err
			}
			colls = append(colls, c.text)
			p.out.Graph.AddToCollection(c.text, oid)
			if p.tok.kind != tokComma {
				break
			}
			p.next()
		}
	}
	if _, err := p.expect(tokLBrace, "'{'"); err != nil {
		return err
	}
	for p.tok.kind != tokRBrace {
		attr, err := p.expect(tokIdent, "attribute name")
		if err != nil {
			return err
		}
		val, err := p.value()
		if err != nil {
			return err
		}
		val = p.applyDirectives(colls, attr.text, val)
		p.out.Graph.AddEdge(oid, attr.text, val)
		if _, err := p.expect(tokSemi, "';'"); err != nil {
			return err
		}
	}
	p.next() // consume '}'
	return nil
}

// applyDirectives coerces a plain string value to the type a collection
// directive declares for the attribute, if any.
func (p *parser) applyDirectives(colls []string, attr string, v graph.Value) graph.Value {
	if v.Kind() != graph.KindString {
		return v // explicit types override directives
	}
	for _, c := range colls {
		if typ, ok := p.doc.Directives[c][attr]; ok {
			if typ == "url" {
				return graph.NewURL(v.Str())
			}
			if ft, ok := graph.ParseFileType(typ); ok {
				return graph.NewFile(ft, v.Str())
			}
		}
	}
	return v
}

func (p *parser) memberStmt() error {
	p.next()
	coll, err := p.expect(tokIdent, "collection name")
	if err != nil {
		return err
	}
	oid, err := p.expect(tokIdent, "node oid")
	if err != nil {
		return err
	}
	p.out.Graph.AddToCollection(coll.text, graph.OID(oid.text))
	_, err = p.expect(tokSemi, "';'")
	return err
}

func (p *parser) edgeStmt() error {
	p.next()
	from, err := p.expect(tokIdent, "source oid")
	if err != nil {
		return err
	}
	label, err := p.expect(tokIdent, "edge label")
	if err != nil {
		return err
	}
	val, err := p.value()
	if err != nil {
		return err
	}
	p.out.Graph.AddEdge(graph.OID(from.text), label.text, val)
	_, err = p.expect(tokSemi, "';'")
	return err
}

// value parses one attribute value.
func (p *parser) value() (graph.Value, error) {
	switch p.tok.kind {
	case tokString:
		v := graph.NewString(p.tok.text)
		p.next()
		return v, nil
	case tokInt:
		v := graph.NewInt(p.tok.i64)
		p.next()
		return v, nil
	case tokFloat:
		v := graph.NewFloat(p.tok.f64)
		p.next()
		return v, nil
	case tokAmp:
		p.next()
		oid, err := p.expect(tokIdent, "node oid after '&'")
		if err != nil {
			return graph.Null, err
		}
		return graph.NewNode(graph.OID(oid.text)), nil
	case tokIdent:
		switch p.tok.text {
		case "true":
			p.next()
			return graph.NewBool(true), nil
		case "false":
			p.next()
			return graph.NewBool(false), nil
		case "url", "text", "html", "image", "postscript":
			typ := p.tok.text
			p.next()
			if _, err := p.expect(tokLParen, "'('"); err != nil {
				return graph.Null, err
			}
			s, err := p.expect(tokString, "quoted string")
			if err != nil {
				return graph.Null, err
			}
			if _, err := p.expect(tokRParen, "')'"); err != nil {
				return graph.Null, err
			}
			if typ == "url" {
				return graph.NewURL(s.text), nil
			}
			ft, _ := graph.ParseFileType(typ)
			return graph.NewFile(ft, s.text), nil
		}
	}
	return graph.Null, p.errf("expected value, got %q", p.tok.text)
}

// View is the read surface Print needs. *graph.Graph and *graph.Frozen
// both provide it, so a map graph and a snapshot print alike.
type View interface {
	CollectionNames() []string
	Collection(name string) []graph.OID
	Nodes() []graph.OID
	Out(oid graph.OID) []graph.Edge
}

// Print serializes a graph to DDL text that Parse round-trips: first all
// collection declarations, then one node block per node carrying its
// memberships and attributes. Directives, having already been applied
// during parsing, serialize as explicitly typed values instead.
func Print(g View) string {
	var b strings.Builder
	memberOf := map[graph.OID][]string{}
	for _, c := range g.CollectionNames() {
		fmt.Fprintf(&b, "collection %s;\n", c)
		for _, oid := range g.Collection(c) {
			memberOf[oid] = append(memberOf[oid], c)
		}
	}
	for _, oid := range g.Nodes() {
		fmt.Fprintf(&b, "node %s", string(oid))
		if colls := memberOf[oid]; len(colls) > 0 {
			fmt.Fprintf(&b, " in %s", strings.Join(colls, ", "))
		}
		b.WriteString(" {\n")
		for _, e := range g.Out(oid) {
			fmt.Fprintf(&b, "    %s %s;\n", e.Label, e.To)
		}
		b.WriteString("}\n")
	}
	return b.String()
}

// Labels returns the attribute names mentioned in a directives map, sorted;
// used by wrappers to report the coercions they will apply.
func (d Directives) Labels(coll string) []string {
	var out []string
	for a := range d[coll] {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}
