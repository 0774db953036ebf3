package core

import "farm/internal/almanac"

// ConstEnv builds a machine's deployment-time constant environment:
// constant machine-variable initializers, overridden by the external
// bindings. The seeder analyses utilities, polls and place directives
// against it and the soil wires triggers against it, so what the seeder
// placed and charged is what the soil accepts.
func ConstEnv(cm *almanac.CompiledMachine, externals map[string]Value) map[string]almanac.Const {
	env := map[string]almanac.Const{}
	for _, v := range cm.Vars {
		if v.Init == nil {
			continue
		}
		if c, err := almanac.EvalConst(v.Init, env); err == nil {
			env[v.Name] = c
		}
	}
	for name, v := range externals {
		switch x := v.(type) {
		case int64:
			env[name] = almanac.NumConst(float64(x))
		case float64:
			env[name] = almanac.NumConst(x)
		case string:
			env[name] = almanac.StrConst(x)
		case bool:
			env[name] = almanac.BoolConst(x)
		case FilterVal:
			c := almanac.FilterConst(x.F)
			c.PortAny = x.PortAny
			env[name] = c
		}
	}
	return env
}
