"""Exact classification of 3-braids from 3-body motions on Lissajous curves."""

from .lissajous import build_H, is_collision_free, normalize
from .report import Report, build_report

__version__ = "0.1.0"
