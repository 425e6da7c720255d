from .project import clean_project
from .window import repeat_visit_scan, bucket_window_scan
from .enrich import Enricher
from .parse import regex_flags

__all__ = ["clean_project", "repeat_visit_scan",
           "Enricher", "regex_flags"]
