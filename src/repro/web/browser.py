"""Headless-browser facade: fetch, follow redirects, render, screenshot.

Plays the role Puppeteer plays in §3.2: given a URL and a device profile it
returns the final landing URL, the (dynamic) HTML, and a screenshot raster.
"Dynamic content" matters for fidelity — some attacker pages inject their
login form from JavaScript (the ADP case study, Fig 14d), so the browser
executes a tiny supported subset of DOM-writing scripts before rendering.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.web.html import Element, parse_html

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultInjector
from repro.web.http import Request, Response, UserAgent, WEB_UA
from repro.web.screenshot import Screenshot, render_page
from repro.web.server import WebHost

MAX_REDIRECTS = 8

# The browser's "JavaScript engine" understands the injection idiom the
# synthetic attacker uses:  document.body.innerHTML += "<form>...</form>";
_INNERHTML_RE = re.compile(
    r"document\.body\.innerHTML\s*\+=\s*(['\"])(?P<markup>(?:\\.|(?!\1).)*)\1",
    re.DOTALL,
)


@dataclass
class PageCapture:
    """Everything the crawler stores about one page visit."""

    requested_url: str
    final_url: str
    user_agent: UserAgent
    html: str
    screenshot: Screenshot
    redirect_chain: Tuple[str, ...] = ()

    @property
    def was_redirected(self) -> bool:
        return len(self.redirect_chain) > 0

    @property
    def final_domain(self) -> str:
        return Request(url=self.final_url).domain


class Browser:
    """Fetch + execute + render pipeline over a :class:`WebHost`."""

    def __init__(
        self,
        host: WebHost,
        user_agent: UserAgent = WEB_UA,
        fault_injector: Optional["FaultInjector"] = None,
        capture_cache=None,
    ) -> None:
        """
        Args:
            capture_cache: optional
                :class:`~repro.perf.cache.CaptureCache`; parse/execute/
                render is skipped when another visit already rendered a
                byte-identical served body under the same UA profile and
                snapshot epoch.  Fetch, redirects, and fault draws are
                never cached — they happen before the lookup, so failure
                behavior is identical with and without the cache.
        """
        self.host = host
        self.user_agent = user_agent
        self.fault_injector = fault_injector
        self.capture_cache = capture_cache

    def visit(self, url: str, snapshot: int = 0, attempt: int = 0) -> Optional[PageCapture]:
        """Visit a URL, following redirects; None when the site is dead.

        With a fault injector installed the visit can die for
        infrastructure reasons instead — the browser process may crash
        (:class:`~repro.faults.errors.BrowserCrashFault`), the transport
        may reset, or an origin may answer 5xx
        (:class:`~repro.faults.errors.HTTPServerError`).  All are
        :class:`~repro.faults.errors.FaultError` subclasses, and all are
        retryable; ``attempt`` re-addresses the fault draws per retry.
        """
        if self.fault_injector is not None:
            self.fault_injector.check_browser(
                url, self.user_agent.name, snapshot, attempt)
        chain: List[str] = []
        current = url
        response: Optional[Response] = None
        for _hop in range(MAX_REDIRECTS):
            response = self.host.serve(
                Request(url=current, user_agent=self.user_agent),
                snapshot=snapshot,
                injector=self.fault_injector,
                attempt=attempt,
            )
            if response is None:
                return None
            if response.status >= 500:
                from repro.faults.errors import HTTPServerError
                from repro.faults.plan import FaultKind

                raise HTTPServerError(FaultKind.HTTP_5XX,
                                      Request(url=current).domain,
                                      status=response.status)
            if response.is_redirect and response.location:
                # Location may be relative in the wild; resolve it
                from repro.web.urls import URLError, resolve

                try:
                    target = resolve(current, response.location)
                except URLError:
                    return None  # unresolvable redirect target
                chain.append(target)
                current = target
                continue
            break
        if response is None or response.is_redirect:
            return None  # redirect loop or dead end
        html, shot = self._render(response.body, snapshot)
        return PageCapture(
            requested_url=url,
            final_url=current,
            user_agent=self.user_agent,
            html=html,
            screenshot=shot,
            redirect_chain=tuple(chain),
        )

    def _render(self, body: str, snapshot: int) -> Tuple[str, Screenshot]:
        """Execute scripts and rasterize, content-addressed when cached.

        Rendering is a pure function of (served bytes, UA profile), so
        entries keyed on the body digest return byte-identical artifacts;
        a cloaked site serves per-UA bodies and the UA sits in the key,
        so profiles can never share entries.
        """
        cache = self.capture_cache
        if cache is not None and cache.enabled:
            key = cache.render_key(body, self.user_agent.name, snapshot)
            hit = cache.lookup_render(key)
            if hit is not None:
                return hit
            html, shot = self._render_uncached(body)
            cache.store_render(key, html, shot)
            return html, shot
        if cache is not None:
            cache.lookup_render(
                cache.render_key(body, self.user_agent.name, snapshot))
        return self._render_uncached(body)

    def _render_uncached(self, body: str) -> Tuple[str, Screenshot]:
        document = parse_html(body)
        document = self._execute_scripts(document)
        shot = render_page(document)
        html = document_to_html(document)
        return html, shot

    def _execute_scripts(self, document: Element) -> Element:
        """Apply supported DOM-writing scripts to the tree."""
        injected_markup: List[str] = []
        for script in document.find_all("script"):
            body = "".join(c for c in script.children if isinstance(c, str))
            for match in _INNERHTML_RE.finditer(body):
                markup = (
                    match.group("markup")
                    .replace('\\"', '"')
                    .replace("\\'", "'")
                    .replace("\\n", "\n")
                )
                injected_markup.append(markup)
        if not injected_markup:
            return document
        body = document.find("body")
        if body is None:
            return document
        for markup in injected_markup:
            fragment = parse_html(markup)
            for child in list(fragment.children):
                body.append(child)
        return document


def document_to_html(document: Element) -> str:
    """Serialize a parsed document back to markup.

    The parse root is the synthetic ``#document`` node; its children are the
    real top-level elements.
    """
    if document.tag == "#document":
        return "\n".join(
            child.to_html() for child in document.children if isinstance(child, Element)
        )
    return document.to_html()
