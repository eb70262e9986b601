package template

import (
	"fmt"
	"html"
	"sort"
	"strconv"
	"strings"

	"strudel/internal/graph"
)

// Site is the template evaluator's view of a site graph; *graph.Graph
// satisfies it.
type Site interface {
	// OutLabel returns the values of the object's edges with the label.
	// The slice may alias the site's own storage (the click-time
	// evaluator answers with a view of its cached page), so callers
	// must not write to it, sort it in place, or append to it.
	OutLabel(oid graph.OID, label string) []graph.Value
}

// TemplateLookup is optionally implemented by Renderers that can resolve
// SINCLUDE names to templates (the HTML generator resolves them against
// its template set).
type TemplateLookup interface {
	LookupTemplate(name string) *Template
}

// Renderer supplies the generation-time decisions the template language
// delays (§2.4): how a node reference becomes a link, what embedding an
// object means, and how file atoms resolve.
type Renderer interface {
	// RenderRef renders a reference to an internal object, typically an
	// anchor to the object's page.
	RenderRef(oid graph.OID, anchorText string) (string, error)
	// RenderEmbed renders the object's own template inline.
	RenderEmbed(oid graph.OID) (string, error)
	// RenderFile renders a file atom, embedded (contents inline) or
	// referenced (link or img tag).
	RenderFile(v graph.Value, embed bool) (string, error)
}

// Render evaluates the template for one object and produces plain HTML.
func Render(t *Template, obj graph.OID, site Site, r Renderer) (string, error) {
	ctx := &renderCtx{site: site, r: r, vars: map[string]graph.Value{}, name: t.Name}
	var b strings.Builder
	if err := ctx.renderNodes(t.Nodes, obj, &b); err != nil {
		return "", err
	}
	return b.String(), nil
}

type renderCtx struct {
	site         Site
	r            Renderer
	vars         map[string]graph.Value
	name         string
	includeDepth int
}

func (ctx *renderCtx) errf(line int, format string, args ...any) error {
	return fmt.Errorf("template %s: line %d: %s", ctx.name, line, fmt.Sprintf(format, args...))
}

func (ctx *renderCtx) renderNodes(nodes []Node, obj graph.OID, b *strings.Builder) error {
	for _, n := range nodes {
		switch n := n.(type) {
		case *TextNode:
			b.WriteString(n.Text)
		case *FmtNode:
			if err := ctx.renderFmt(n, obj, b); err != nil {
				return err
			}
		case *IfNode:
			if err := ctx.renderIf(n, obj, b); err != nil {
				return err
			}
		case *ForNode:
			if err := ctx.renderFor(n, obj, b); err != nil {
				return err
			}
		case *IncludeNode:
			if err := ctx.renderInclude(n, obj, b); err != nil {
				return err
			}
		}
	}
	return nil
}

// evalExpr evaluates an attribute expression to the list of values it
// denotes, in deterministic order.
func (ctx *renderCtx) evalExpr(e AttrExpr, obj graph.OID, line int) ([]graph.Value, error) {
	var current []graph.Value
	if e.Var != "" {
		v, ok := ctx.vars[e.Var]
		if !ok {
			return nil, ctx.errf(line, "unknown loop variable @%s", e.Var)
		}
		current = []graph.Value{v}
	} else {
		current = []graph.Value{graph.NewNode(obj)}
	}
	for _, seg := range e.Path {
		// next starts nil, so the append copies every OutLabel view:
		// the result is the caller's to reorder (renderFmt sorts it).
		var next []graph.Value
		for _, v := range current {
			if !v.IsNode() {
				continue // atoms have no attributes
			}
			next = append(next, ctx.site.OutLabel(v.OID(), seg)...)
		}
		current = next
	}
	return current, nil
}

// first returns the first value of an object's attribute, or Null.
func (ctx *renderCtx) first(oid graph.OID, label string) graph.Value {
	vals := ctx.site.OutLabel(oid, label)
	if len(vals) == 0 {
		return graph.Null
	}
	return vals[0]
}

// anchorText picks the display text for a node reference: the TEXT
// directive's attribute if given, else the first of title, name, or label,
// else the oid itself.
func (ctx *renderCtx) anchorText(oid graph.OID, textAttr string) string {
	if textAttr != "" {
		if v := ctx.first(oid, textAttr); !v.IsNull() {
			return v.Text()
		}
	}
	for _, attr := range []string{"title", "name", "label", "Title", "Name"} {
		if v := ctx.first(oid, attr); !v.IsNull() && v.IsAtom() {
			return v.Text()
		}
	}
	return string(oid)
}

// renderValue renders one value per the SFMT rules.
func (ctx *renderCtx) renderValue(v graph.Value, embed bool, textAttr string) (string, error) {
	switch v.Kind() {
	case graph.KindNode:
		if embed {
			return ctx.r.RenderEmbed(v.OID())
		}
		return ctx.r.RenderRef(v.OID(), ctx.anchorText(v.OID(), textAttr))
	case graph.KindFile:
		return ctx.r.RenderFile(v, embed)
	case graph.KindURL:
		u := html.EscapeString(v.Str())
		return fmt.Sprintf(`<a href="%s">%s</a>`, u, u), nil
	case graph.KindNull:
		return "", nil
	default:
		return html.EscapeString(v.Text()), nil
	}
}

func (ctx *renderCtx) renderFmt(n *FmtNode, obj graph.OID, b *strings.Builder) error {
	values, err := ctx.evalExpr(n.Expr, obj, n.Line)
	if err != nil {
		return err
	}
	if n.Order != "" {
		// values is evalExpr's own copy, never a Site view, so sorting
		// it in place leaves the site's storage in its order. Each sort
		// key is read once, not once per comparison.
		keys := make([]graph.Value, len(values))
		for i, v := range values {
			keys[i] = v
			if n.Key != "" && v.IsNode() {
				keys[i] = ctx.first(v.OID(), n.Key)
			}
		}
		sort.Stable(keyedValues{vals: values, keys: keys, desc: n.Order == "descend"})
	}
	enumerate := n.Enum || n.List != "" || n.Order != ""
	if !enumerate && len(values) > 1 {
		values = values[:1]
	}
	var parts []string
	for _, v := range values {
		s, err := ctx.renderValue(v, n.Embed, n.Text)
		if err != nil {
			return err
		}
		parts = append(parts, s)
	}
	switch n.List {
	case "UL":
		b.WriteString("<ul>\n")
		for _, p := range parts {
			b.WriteString("<li>" + p + "</li>\n")
		}
		b.WriteString("</ul>")
	case "OL":
		b.WriteString("<ol>\n")
		for _, p := range parts {
			b.WriteString("<li>" + p + "</li>\n")
		}
		b.WriteString("</ol>")
	default:
		b.WriteString(strings.Join(parts, n.Delim))
	}
	return nil
}

// keyedValues sorts values by their precomputed sort keys.
type keyedValues struct {
	vals, keys []graph.Value
	desc       bool
}

func (k keyedValues) Len() int { return len(k.vals) }

func (k keyedValues) Less(i, j int) bool {
	c := graph.Compare(k.keys[i], k.keys[j])
	if k.desc {
		return c > 0
	}
	return c < 0
}

func (k keyedValues) Swap(i, j int) {
	k.vals[i], k.vals[j] = k.vals[j], k.vals[i]
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
}

// parseConst reads a SIF comparison constant: int, float, or string.
func parseConst(s string) graph.Value {
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return graph.NewInt(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return graph.NewFloat(f)
	}
	return graph.NewString(s)
}

func (ctx *renderCtx) renderIf(n *IfNode, obj graph.OID, b *strings.Builder) error {
	values, err := ctx.evalExpr(n.Expr, obj, n.Line)
	if err != nil {
		return err
	}
	hold := false
	if n.Op == "" {
		hold = len(values) > 0 && !values[0].IsNull()
	} else if len(values) > 0 {
		c := parseConst(n.Value)
		v := values[0]
		switch n.Op {
		case "=":
			hold = graph.Equiv(v, c)
		case "!=":
			hold = !graph.Equiv(v, c)
		case "<":
			hold = graph.Compare(v, c) < 0
		case "<=":
			hold = graph.Compare(v, c) <= 0
		case ">":
			hold = graph.Compare(v, c) > 0
		case ">=":
			hold = graph.Compare(v, c) >= 0
		}
	}
	if hold {
		return ctx.renderNodes(n.Then, obj, b)
	}
	return ctx.renderNodes(n.Else, obj, b)
}

func (ctx *renderCtx) renderFor(n *ForNode, obj graph.OID, b *strings.Builder) error {
	values, err := ctx.evalExpr(n.Expr, obj, n.Line)
	if err != nil {
		return err
	}
	saved, had := ctx.vars[n.Var]
	defer func() {
		if had {
			ctx.vars[n.Var] = saved
		} else {
			delete(ctx.vars, n.Var)
		}
	}()
	for i, v := range values {
		if i > 0 {
			b.WriteString(n.Delim)
		}
		ctx.vars[n.Var] = v
		if err := ctx.renderNodes(n.Body, obj, b); err != nil {
			return err
		}
	}
	return nil
}

// renderInclude renders another named template against the same object.
func (ctx *renderCtx) renderInclude(n *IncludeNode, obj graph.OID, b *strings.Builder) error {
	lookup, ok := ctx.r.(TemplateLookup)
	if !ok {
		return ctx.errf(n.Line, "SINCLUDE %s: this renderer cannot resolve templates", n.Name)
	}
	t := lookup.LookupTemplate(n.Name)
	if t == nil {
		return ctx.errf(n.Line, "SINCLUDE %s: no such template", n.Name)
	}
	if ctx.includeDepth > 16 {
		return ctx.errf(n.Line, "SINCLUDE %s: include depth exceeded (cycle?)", n.Name)
	}
	ctx.includeDepth++
	defer func() { ctx.includeDepth-- }()
	return ctx.renderNodes(t.Nodes, obj, b)
}
