"""Safety verification of parameterised multi-agent systems.

Submodules:
  logic    -- cubes, state formulae and one ground decision procedure
              (EUF), a one-pass reading through constants and classes
  model    -- system model (templates, protocols, snapshots), formula evaluation
  dsl      -- textual model format parser
  encoder  -- array-based transition-system encodings (interleaved, concurrent)
  engine   -- symbolic backward reachability, exists/forall entailment,
              locality analysis, trace extraction
  oracle   -- explicit-state enumeration, trace replay, cross checking
  mcmt     -- MCMT export and witness parsing
  corpus   -- pseudo-random model generation for cross validation
"""

__version__ = "0.1.0"
