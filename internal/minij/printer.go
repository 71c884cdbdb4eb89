package minij

import (
	"fmt"
	"strconv"
	"strings"
)

// CanonExpr renders an expression in canonical single-line form. Canonical
// text is whitespace-normalized and fully parenthesis-free except where
// required, so two syntactically equal expressions always canonicalize to
// the same string. Contract target patterns match against this form.
func CanonExpr(e Expr) string {
	var sb strings.Builder
	writeExpr(&sb, e, 0)
	return sb.String()
}

// precedence levels for canonical printing (higher binds tighter).
func opPrec(op string) int {
	switch op {
	case "||":
		return 1
	case "&&":
		return 2
	case "==", "!=":
		return 3
	case "<", "<=", ">", ">=":
		return 4
	case "+", "-":
		return 5
	case "*", "/", "%":
		return 6
	}
	return 7
}

func writeExpr(sb *strings.Builder, e Expr, parent int) {
	switch n := e.(type) {
	case *IntLit:
		sb.WriteString(strconv.FormatInt(n.Value, 10))
	case *BoolLit:
		if n.Value {
			sb.WriteString("true")
		} else {
			sb.WriteString("false")
		}
	case *StrLit:
		sb.WriteString(strconv.Quote(n.Value))
	case *NullLit:
		sb.WriteString("null")
	case *Ident:
		sb.WriteString(n.Name)
	case *FieldAccess:
		writeExpr(sb, n.Recv, 7)
		sb.WriteByte('.')
		sb.WriteString(n.Name)
	case *Call:
		if n.Recv != nil {
			writeExpr(sb, n.Recv, 7)
			sb.WriteByte('.')
		}
		sb.WriteString(n.Name)
		sb.WriteByte('(')
		for i, a := range n.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeExpr(sb, a, 0)
		}
		sb.WriteByte(')')
	case *New:
		sb.WriteString("new ")
		sb.WriteString(n.Class)
		sb.WriteByte('(')
		for i, a := range n.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeExpr(sb, a, 0)
		}
		sb.WriteByte(')')
	case *Unary:
		sb.WriteString(n.Op)
		writeExpr(sb, n.X, 7)
	case *Binary:
		prec := opPrec(n.Op)
		if prec < parent {
			sb.WriteByte('(')
		}
		writeExpr(sb, n.X, prec)
		sb.WriteByte(' ')
		sb.WriteString(n.Op)
		sb.WriteByte(' ')
		// Right operand uses prec+1 so chains print left-associatively
		// with explicit parens on the right when re-nesting occurs.
		writeExpr(sb, n.Y, prec+1)
		if prec < parent {
			sb.WriteByte(')')
		}
	default:
		fmt.Fprintf(sb, "<?expr %T>", e)
	}
}

// CanonStmt renders the head of a statement in canonical single-line form.
// Compound statements render only their header (e.g. "if (cond)"), which is
// what target-statement patterns match against.
func CanonStmt(s Stmt) string {
	switch n := s.(type) {
	case *Block:
		return "{...}"
	case *VarDecl:
		if n.Init != nil {
			return n.Type.String() + " " + n.Name + " = " + CanonExpr(n.Init) + ";"
		}
		return n.Type.String() + " " + n.Name + ";"
	case *Assign:
		return CanonExpr(n.Target) + " = " + CanonExpr(n.Value) + ";"
	case *If:
		return "if (" + CanonExpr(n.Cond) + ")"
	case *While:
		return "while (" + CanonExpr(n.Cond) + ")"
	case *For:
		var init, cond, post string
		if n.Init != nil {
			init = strings.TrimSuffix(CanonStmt(n.Init), ";")
		}
		if n.Cond != nil {
			cond = CanonExpr(n.Cond)
		}
		if n.Post != nil {
			post = strings.TrimSuffix(CanonStmt(n.Post), ";")
		}
		return "for (" + init + "; " + cond + "; " + post + ")"
	case *ForEach:
		return "for (" + n.Var + " in " + CanonExpr(n.Iter) + ")"
	case *Return:
		if n.Value != nil {
			return "return " + CanonExpr(n.Value) + ";"
		}
		return "return;"
	case *Break:
		return "break;"
	case *Continue:
		return "continue;"
	case *Throw:
		return "throw " + CanonExpr(n.Value) + ";"
	case *Try:
		return "try"
	case *Sync:
		return "synchronized (" + CanonExpr(n.Lock) + ")"
	case *ExprStmt:
		return CanonExpr(n.E) + ";"
	}
	return fmt.Sprintf("<?stmt %T>", s)
}

// FormatProgram pretty-prints a program in canonical multi-line form with
// tab indentation. Formatting the same program twice yields identical text,
// which makes version-to-version diffs stable.
func FormatProgram(p *Program) string { return FormatClasses(p.Classes) }

// FormatClasses renders classes the way FormatProgram renders a program's
// classes, so the canon of a program extended by more classes is its old
// canon, a newline, and the added classes' rendering.
func FormatClasses(classes []*Class) string {
	var sb strings.Builder
	for i, c := range classes {
		if i > 0 {
			sb.WriteByte('\n')
		}
		formatClass(&sb, c)
	}
	return sb.String()
}

func formatClass(sb *strings.Builder, c *Class) {
	sb.WriteString("class ")
	sb.WriteString(c.Name)
	sb.WriteString(" {\n")
	for _, f := range c.Fields {
		sb.WriteByte('\t')
		sb.WriteString(f.Type.String())
		sb.WriteByte(' ')
		sb.WriteString(f.Name)
		sb.WriteString(";\n")
	}
	if len(c.Fields) > 0 && len(c.Methods) > 0 {
		sb.WriteByte('\n')
	}
	for i, m := range c.Methods {
		if i > 0 {
			sb.WriteByte('\n')
		}
		formatMethod(sb, m)
	}
	sb.WriteString("}\n")
}

// FormatMethod pretty-prints one method in canonical form, prefixed with
// its qualified name. Like FormatProgram, the output depends only on the
// method's AST — never on source positions or original whitespace — so it
// doubles as the content identity the incremental scheduler fingerprints.
func FormatMethod(m *Method) string {
	var sb strings.Builder
	sb.WriteString(m.FullName())
	sb.WriteByte('\n')
	formatMethod(&sb, m)
	return sb.String()
}

func formatMethod(sb *strings.Builder, m *Method) {
	sb.WriteByte('\t')
	if m.Static {
		sb.WriteString("static ")
	}
	sb.WriteString(m.Ret.String())
	sb.WriteByte(' ')
	sb.WriteString(m.Name)
	sb.WriteByte('(')
	for i, p := range m.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(p.Type.String())
		sb.WriteByte(' ')
		sb.WriteString(p.Name)
	}
	sb.WriteString(") ")
	formatBlock(sb, m.Body, 1)
	sb.WriteByte('\n')
}

func formatBlock(sb *strings.Builder, b *Block, depth int) {
	sb.WriteString("{\n")
	for _, s := range b.Stmts {
		formatStmt(sb, s, depth+1)
	}
	indent(sb, depth)
	sb.WriteString("}")
}

func indent(sb *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteByte('\t')
	}
}

func formatStmt(sb *strings.Builder, s Stmt, depth int) {
	indent(sb, depth)
	switch n := s.(type) {
	case *Block:
		formatBlock(sb, n, depth)
		sb.WriteByte('\n')
	case *If:
		formatIf(sb, n, depth)
		sb.WriteByte('\n')
	case *While:
		sb.WriteString(CanonStmt(n))
		sb.WriteByte(' ')
		formatBlock(sb, n.Body, depth)
		sb.WriteByte('\n')
	case *For:
		sb.WriteString(CanonStmt(n))
		sb.WriteByte(' ')
		formatBlock(sb, n.Body, depth)
		sb.WriteByte('\n')
	case *ForEach:
		sb.WriteString(CanonStmt(n))
		sb.WriteByte(' ')
		formatBlock(sb, n.Body, depth)
		sb.WriteByte('\n')
	case *Try:
		sb.WriteString("try ")
		formatBlock(sb, n.Body, depth)
		sb.WriteString(" catch (")
		sb.WriteString(n.CatchVar)
		sb.WriteString(") ")
		formatBlock(sb, n.Catch, depth)
		sb.WriteByte('\n')
	case *Sync:
		sb.WriteString(CanonStmt(n))
		sb.WriteByte(' ')
		formatBlock(sb, n.Body, depth)
		sb.WriteByte('\n')
	default:
		sb.WriteString(CanonStmt(s))
		sb.WriteByte('\n')
	}
}

func formatIf(sb *strings.Builder, n *If, depth int) {
	sb.WriteString("if (")
	sb.WriteString(CanonExpr(n.Cond))
	sb.WriteString(") ")
	formatBlock(sb, n.Then, depth)
	switch e := n.Else.(type) {
	case nil:
	case *If:
		sb.WriteString(" else ")
		formatIf(sb, e, depth)
	case *Block:
		sb.WriteString(" else ")
		formatBlock(sb, e, depth)
	}
}
