"""Set-up probe: import robpcount and make one small call into each layer.

run.py times this script from process start to exit; the median over a few
fresh interpreters is the benchmark's setup_s, so work moved into import or
lazy initialisation of any layer shows there.
"""

import robpcount as rc

p = rc.read_robp(rc.write_robp(rc.exact_counter(4, 2)))
assert rc.validate(p).valid
assert rc.verify(p, rc.counter_alphabet(2), 0).valid
lp = rc.compute_labels(p, "potential")
assert rc.audit_growth_counter(lp, p.width, rc.profile_counter(lp)).overall_pass
assert rc.frontier(3, 2).delta_star == rc.frontier_brute_force(3, 2)
assert rc.exhaustive_verify(p, rc.counter_alphabet(2), 0)
assert rc.mg_finalize(rc.mg_run([1, 2, 1], 2, 3)).elements == (1, 2)
assert rc.thm_main_feasible(90, 2, 4, 30).ruled_out
