"""Built-in analyzer rules, one module each; importing a module
registers its rule. :func:`repro.static.registry.all_rules` imports all
of :data:`BUILTIN` before it answers, so a process that needs one rule
(``repro.ir.validate`` needs ``structural``) loads that one alone."""

#: The built-in rule modules, in the order the registry lists their rules.
BUILTIN = ("flow", "guards", "pointsto", "speculation", "structural", "targets")
