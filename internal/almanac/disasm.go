package almanac

import (
	"fmt"
	"strings"
)

// Disassemble renders a lowered program for humans: frame layouts,
// per-state dispatch tables, and the register code of every chunk with
// operands resolved back to names (farmctl compile -dump).
func (p *Lowered) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine %s: %d consts, %d names\n", p.Machine, len(p.Lits), len(p.Names))
	if len(p.EnvSlots) > 0 {
		fmt.Fprintf(&b, "env slots:\n")
		for i, s := range p.EnvSlots {
			fmt.Fprintf(&b, "  e%-3d %s %s\n", i, s.Type, s.Name)
		}
	}
	for si := range p.States {
		st := &p.States[si]
		initial := ""
		if int32(si) == p.InitialState {
			initial = " (initial)"
		}
		fmt.Fprintf(&b, "state %s%s:\n", st.Name, initial)
		for i, s := range st.Slots {
			fmt.Fprintf(&b, "  s%-3d %s %s\n", i, s.Type, s.Name)
		}
		for ti, ci := range st.OnVar {
			if ci >= 0 {
				fmt.Fprintf(&b, "  when %s -> chunk %d\n", p.TriggerNames[ti], ci)
			}
		}
		if st.Enter >= 0 {
			fmt.Fprintf(&b, "  enter -> chunk %d\n", st.Enter)
		}
		if st.Exit >= 0 {
			fmt.Fprintf(&b, "  exit -> chunk %d\n", st.Exit)
		}
		if st.Realloc >= 0 {
			fmt.Fprintf(&b, "  realloc -> chunk %d\n", st.Realloc)
		}
		for _, rc := range st.Recvs {
			fmt.Fprintf(&b, "  recv %s -> chunk %d\n", rc.Trigger.RecvVar, rc.Chunk)
		}
	}
	for fi := range p.Funcs {
		fn := &p.Funcs[fi]
		fmt.Fprintf(&b, "func %s/%d -> chunk %d\n", fn.Name, fn.NumParams, fn.Chunk)
	}
	fmt.Fprintf(&b, "init -> chunk %d\n", p.Init)
	b.WriteString(p.DisassembleRegisters())
	return b.String()
}

// DisassembleRegisters renders the register code the VM executes: the
// record layouts structs resolve to at compile time, then every chunk's
// three-address code with class-tagged operands (rN registers, literals
// inline, eN env slots, sN state slots) and fused compare-and-branch
// forms.
func (p *Lowered) DisassembleRegisters() string {
	var b strings.Builder
	fmt.Fprintf(&b, "register form: %d chunks, %d instrs, max frame %d regs, %d field sites\n",
		len(p.RegChunks), p.NumRegInstrs(), p.MaxRegs(), p.RFieldSites)
	if len(p.Structs) > 0 {
		fmt.Fprintf(&b, "layouts:\n")
		for i, s := range p.Structs {
			fmt.Fprintf(&b, "  L%-3d %s{%s}\n", i, s.TypeName, strings.Join(s.Fields, ","))
		}
	}
	for ci := range p.RegChunks {
		ch := &p.RegChunks[ci]
		fmt.Fprintf(&b, "rchunk %d: %d regs (%d locals", ci, ch.NumRegs, ch.NumLocals)
		if ch.HasBind {
			fmt.Fprintf(&b, ", r0 = binding")
		}
		if int32(ci) == p.Init {
			fmt.Fprintf(&b, ", init")
		}
		fmt.Fprintf(&b, ")\n")
		for pc, in := range ch.Code {
			step := "  "
			if in.Step > 0 {
				step = "+ " // charges one action before executing
			}
			fmt.Fprintf(&b, "  %4d %s%s\n", pc, step, p.renderRInstr(in))
		}
	}
	return b.String()
}

// ropnd renders a class-tagged operand.
func (p *Lowered) ropnd(o int32) string {
	if o < 0 {
		return "_"
	}
	if o <= ROpndMask {
		return fmt.Sprintf("r%d", o)
	}
	i := o & ROpndMask
	switch o >> ROpndShift {
	case RClassLit:
		l := p.Lits[i]
		switch l.Kind {
		case LitInt:
			return fmt.Sprintf("%d", l.I)
		case LitFloat:
			return fmt.Sprintf("%g", l.F)
		case LitBool:
			return fmt.Sprintf("%v", l.B)
		default:
			return fmt.Sprintf("%q", l.S)
		}
	case RClassEnv:
		return fmt.Sprintf("e%d", i)
	default:
		return fmt.Sprintf("s%d", i)
	}
}

func (p *Lowered) renderRInstr(in RInstr) string {
	name := func(i int32) string { return p.Names[i] }
	dst := func() string { return p.ropnd(in.Dst) }
	switch in.Op {
	case RNop:
		return "nop"
	case RMove:
		return fmt.Sprintf("%s = %s", dst(), p.ropnd(in.A))
	case RZero:
		return fmt.Sprintf("%s = zero %s", dst(), Type(in.A))
	case RBindExternal:
		return fmt.Sprintf("%s = r%d ?: e%d", dst(), in.A, in.B)
	case RJump:
		return fmt.Sprintf("jump %d", in.A)
	case RJF:
		return fmt.Sprintf("jump.false %s -> %d", p.ropnd(in.A), in.B)
	case RLoopInit:
		return fmt.Sprintf("loop.init r%d", in.A)
	case RLoopCheck:
		return fmt.Sprintf("loop.check r%d", in.A)
	case RTransit:
		if in.A >= 0 {
			return fmt.Sprintf("transit %s", p.States[in.A].Name)
		}
		return "transit <unknown>"
	case RReturn:
		return fmt.Sprintf("return %s", p.ropnd(in.A))
	case RNot:
		return fmt.Sprintf("%s = not %s", dst(), p.ropnd(in.A))
	case RNeg:
		return fmt.Sprintf("%s = neg %s", dst(), p.ropnd(in.A))
	case RAdd, RSub, RMul, RDiv, RLt, RLe, RGt, RGe, REq, RNe:
		mn := map[ROp]string{
			RAdd: "add", RSub: "sub", RMul: "mul", RDiv: "div",
			RLt: "lt", RLe: "le", RGt: "gt", RGe: "ge", REq: "eq", RNe: "ne",
		}[in.Op]
		return fmt.Sprintf("%s = %s %s, %s", dst(), mn, p.ropnd(in.A), p.ropnd(in.B))
	case RTruthy:
		return fmt.Sprintf("r%d = truthy %s", in.Dst, p.ropnd(in.A))
	case RAndL:
		return fmt.Sprintf("r%d = and.l %s end=%d", in.Dst, p.ropnd(in.A), in.B)
	case RAndR:
		return fmt.Sprintf("r%d = and.r %s", in.Dst, p.ropnd(in.A))
	case ROrL:
		return fmt.Sprintf("r%d = or.l %s end=%d", in.Dst, p.ropnd(in.A), in.B)
	case RField:
		return fmt.Sprintf("%s = %s .%s [site %d]", dst(), p.ropnd(in.A), name(in.B), in.C)
	case RFilterAtom:
		return fmt.Sprintf("%s = filter %s %s", dst(), name(in.B), p.ropnd(in.A))
	case RFilterAny:
		return fmt.Sprintf("%s = filter port ANY", dst())
	case RStructLit:
		s := p.Structs[in.A]
		return fmt.Sprintf("%s = struct L%d %s{...} from r%d", dst(), in.A, s.TypeName, in.B)
	case RListLit:
		return fmt.Sprintf("%s = list r%d..r%d", dst(), in.A, in.A+in.B-1)
	case RCallB:
		return fmt.Sprintf("%s = call.builtin %s r%d..r%d", dst(), name(in.A), in.B, in.B+in.C-1)
	case RCallB2:
		return fmt.Sprintf("%s = call.builtin %s %s, %s", dst(), name(in.A), p.ropnd(in.B), p.ropnd(in.C))
	case RCallFn:
		return fmt.Sprintf("%s = call.func %s r%d..r%d", dst(), p.Funcs[in.A].Name, in.B, in.B+in.C-1)
	case RStep:
		return "step"
	case RSend:
		s := p.Sends[in.A]
		switch {
		case s.Harvester:
			return fmt.Sprintf("send harvester %s", p.ropnd(in.B))
		case s.HasDst:
			return fmt.Sprintf("send %s@%s %s", s.Machine, p.ropnd(in.C), p.ropnd(in.B))
		default:
			return fmt.Sprintf("send %s %s", s.Machine, p.ropnd(in.B))
		}
	case RSetIval:
		return fmt.Sprintf("set.ival %s = %s", name(in.A), p.ropnd(in.B))
	case RSetTrigger:
		return fmt.Sprintf("set.trigger %s = %s", name(in.A), p.ropnd(in.B))
	case RFieldAssign:
		fa := p.FieldAssigns[in.A]
		return fmt.Sprintf("store.field %s.%s = %s", fa.Target, fa.Field, p.ropnd(in.B))
	case RErr:
		return fmt.Sprintf("err %q", p.Errs[in.A])
	case RJLt, RJLe, RJGt, RJGe, RJEq, RJNe:
		mn := map[ROp]string{
			RJLt: "jlt", RJLe: "jle", RJGt: "jgt", RJGe: "jge", RJEq: "jeq", RJNe: "jne",
		}[in.Op]
		return fmt.Sprintf("%s.false %s, %s -> %d", mn, p.ropnd(in.A), p.ropnd(in.B), in.C)
	case RListLen:
		return fmt.Sprintf("%s = list_len %s", dst(), p.ropnd(in.B))
	case RListGet:
		return fmt.Sprintf("%s = list_get %s[%s]", dst(), p.ropnd(in.B), p.ropnd(in.C))
	case RMulAdd:
		return fmt.Sprintf("%s = muladd %s, %s, %s", dst(), p.ropnd(in.A), p.ropnd(in.B), p.ropnd(in.C))
	case RMapReset:
		return fmt.Sprintf("%s = map_new in place", dst())
	case RMapGetNew:
		return fmt.Sprintf("%s = map_get %s[%s] ?: map_new", dst(), p.ropnd(in.B), p.ropnd(in.C))
	}
	return fmt.Sprintf("rop%d %d %d %d %d", in.Op, in.Dst, in.A, in.B, in.C)
}
