"""Multi-agent text-to-SQL: schema pruning, stepwise generation, execution repair."""

from .backend import ScriptedBackend
from .datasets import DatabaseRegistry, Task
from .pipeline import Pipeline, PipelineConfig

__version__ = "0.1.0"
