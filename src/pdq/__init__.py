"""Budget-feasible procurement of personalized privacy, plus the private
query mechanisms and baselines needed to evaluate it end to end."""

__version__ = "0.1.0"
